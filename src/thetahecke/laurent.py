"""Exact Laurent arithmetic in a half-integer power of a deformation variable.

The ground ring is Z[v, v^-1] where v**2 = nu, the deformation variable.
A ring element is stored as a sparse map ``{e: c}`` meaning ``sum c * nu**(e/2)``,
with integer coefficients and integer exponent numerators (denominator fixed
at 2).  ``add_shifted`` and ``add_product`` are the kernels on these term
dicts: ``LaurentPoly``'s sum and product, the sums of ``heckealg.he_mul``
and the module's sparse vector sums (keys e*dim + p) all run through them.
The specialization at ``nu = 1`` is the integer obtained by summing all
coefficients.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Mapping

HalfInt = Fraction  # values with denominator 1 or 2


def as_half(value) -> HalfInt:
    """Coerce an int, Fraction or 'p/q' string to a half-integer.

    Fraction builds a decimal exponent's power of ten in full, seconds of work
    at '1e10000000', so a string whose exponent is past the digits Python
    converts from a string, or has that many digits itself, is refused first
    with an OverflowError, as a literal with that many digits is.

    >>> as_half("3/2")
    Fraction(3, 2)
    >>> as_half(-2)
    Fraction(-2, 1)
    """
    if isinstance(value, str):
        exp = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", value, re.IGNORECASE)
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit, before 3.10.7
        if exp and limit and (len(exp[1]) > limit or abs(int(exp[1])) > limit):
            raise OverflowError(f"{value} has too many digits to print")
    try:
        f = Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"not a half-integer: {value!r} has a zero denominator") from None
    if f.denominator not in (1, 2):
        raise ValueError(f"not a half-integer: {value!r}")
    return f


def format_half(value: HalfInt) -> str:
    """Render a half-integer the way the CLI serializes it ('2', '-3/2')."""
    f = as_half(value)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/2"


def add_shifted(out: dict[int, int], p: dict[int, int], e: int, k: int = 1) -> None:
    """out += k * nu^(e/2) * p for Laurent term dicts {e: c}, zeros dropped
    from out; p may hold zeros, and a zero product leaves out as it is."""
    get = out.get
    for f, c in p.items():
        f += e
        s = get(f, 0) + k * c
        if s:
            out[f] = s
        elif f in out:
            del out[f]


def add_product(out: dict[int, int], p: dict[int, int], q: dict[int, int]) -> None:
    """out += p * q for Laurent term dicts."""
    for e, k in q.items():
        add_shifted(out, p, e, k)


class LaurentPoly:
    """A Laurent polynomial in nu**(1/2) with integer coefficients.

    Immutable by convention: no method mutates ``self.terms``.

    >>> p = LaurentPoly.nu_power(Fraction(1, 2)) + LaurentPoly({0: 2})
    >>> str(p)
    '2 + nu^(1/2)'
    >>> (p * p).specialize_nu1()
    9
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        clean = {}
        if terms:
            for e, c in terms.items():
                if not (isinstance(e, int) and isinstance(c, int)):
                    raise TypeError(f"terms need int exponents and coefficients: {e!r}: {c!r}")
                if c:
                    clean[e] = c
        self.terms: dict[int, int] = clean

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def nu_power(cls, e, coeff: int = 1) -> "LaurentPoly":
        """coeff * nu**e for a half-integer e."""
        f = as_half(e)
        return cls({int(f * 2): coeff})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        add_shifted(out, other.terms, 0)
        return LaurentPoly(out)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-other)

    def __mul__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self.terms or not other.terms:
            return LaurentPoly.zero()
        out: dict[int, int] = {}
        add_product(out, self.terms, other.terms)
        return LaurentPoly(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, LaurentPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- inspection --------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> list[int]:
        """Exponent numerators in increasing order."""
        return sorted(self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in self.support():
            c = self.terms[e]
            if e == 0:
                parts.append(f"{c}")
                continue
            exp = f"nu^{e // 2}" if e % 2 == 0 else f"nu^({e}/2)"
            if c == 1:
                parts.append(exp)
            elif c == -1:
                parts.append(f"-{exp}")
            else:
                parts.append(f"{c}*{exp}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self) -> str:
        return f"LaurentPoly({self.terms!r})"

    # -- specialization ----------------------------------------------------

    def specialize_nu1(self) -> int:
        """Evaluate at nu = 1 (so also v = 1): the coefficient sum."""
        return sum(self.terms.values())
