"""Generic Hecke algebra of a signed permutation group, two parameters.

The algebra over Z[nu^(1/2), nu^(-1/2)] has basis T_w indexed by group
elements, with T_u T_w = T_(uw) whenever lengths add and quadratic relations

    (T_s + 1)(T_s - nu) = 0                for the adjacent swaps,
    (T_t + 1)(T_t - nu**flip_exponent) = 0  for the sign flip,

the flip exponent being any half-integer.

Products are computed by peeling words one generator at a time:
multiplying a basis element on the right by a generator either ascends
(plain relabel) or descends, in which case the quadratic relation spends a
factor of the generator's parameter, one shift and one subtraction on a
coefficient packed into one integer (Kronecker substitution).
"""

from __future__ import annotations

import struct
from collections import namedtuple
from functools import lru_cache

from .laurent import HalfInt, LaurentPoly, add_product, as_half
from .weylbc import SignedPerm, gen_perm, identity, length, reduced_word


class HeckeParams(namedtuple("HeckeParams", "rank flip_numer")):
    """Rank plus the flip parameter exponent; flip_numer is the numerator of
    the half-integer exponent."""

    __slots__ = ()

    @classmethod
    def signed(cls, l: int, mu) -> "HeckeParams":
        return cls(l, int(as_half(mu) * 2))

    def gen_exponent(self, g: int) -> HalfInt:
        """Exponent e with parameter nu**e for generator g."""
        if not 1 <= g <= self.rank:
            raise ValueError(f"no generator {g} at rank {self.rank}")
        return HalfInt(self.flip_numer, 2) if g == self.rank else HalfInt(1)


class HeckeElem:
    """A finitely supported map from group elements to ring elements."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[SignedPerm, LaurentPoly] | None = None):
        self.terms = {w: c for w, c in (terms or {}).items() if not c.is_zero()}

    @classmethod
    def basis(cls, w: SignedPerm, coeff: LaurentPoly | None = None) -> "HeckeElem":
        return cls({w: coeff if coeff is not None else LaurentPoly.one()})

    @classmethod
    def unit(cls, l: int) -> "HeckeElem":
        return cls.basis(identity(l))

    def __add__(self, other: "HeckeElem") -> "HeckeElem":
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out[w] + c if w in out else c
        return HeckeElem(out)  # zeros dropped

    def __eq__(self, other) -> bool:
        return isinstance(other, HeckeElem) and self.terms == other.terms

    def support(self) -> list[SignedPerm]:
        # by (length, w): sorted by w, then stably by length
        return sorted(sorted(self.terms), key=length)

    def __repr__(self) -> str:
        inner = ", ".join(f"{w}: {self.terms[w]}" for w in self.support())
        return f"HeckeElem({{{inner}}})"


def _peel(params: HeckeParams, u: SignedPerm, gens) -> dict:
    """T_u T_g1 ... T_gn as term dicts {x: {e: c}} for the generator indices
    gens, zeros dropped; a reduced word of w gives T_u T_w.

    Past the first descent a coefficient is one integer whose base-2^W digit
    alpha a + beta b - lo holds its monomial nu^((2a + F b)/2), F = flip_numer,
    for a swap and b flip descents among the d letters left (amax and bmax at
    most): (alpha, beta) = (2/g, F/g), g = 2 for an even F and 1 for an odd
    one, while |F| <= g amax; past that no two (a, b) share an exponent and
    beta is capped at +-(amax + 1).  A step at most triples the sum of the
    absolute coefficients, so W is the least multiple of 64 with 3^d < 2^(W - 1).
    """
    l, F = params.rank, params.flip_numer
    gens = list(gens)
    for g in gens:
        params.gen_exponent(g)  # checks g
    m = [0] * (2 * l + 1)  # m(v) = sign(v) (l + 1 - |v|), a negative v read from the end
    for v in range(1, l + 1):
        m[v], m[-v] = l + 1 - v, v - l - 1

    def times(x: SignedPerm, g: int):
        # x s_g, and whether g is a right descent of x (see weylbc.is_right_descent)
        i, a = g - 1, x[g - 1]
        if g == l:
            return x[:i] + (-a,), a < 0
        b = x[g]
        return x[:i] + (b, a) + x[g + 1 :], m[b] > m[a]

    n = 0  # the reduced prefix: u relabelled up to the first descent
    while n < len(gens) and not (step := times(u, gens[n]))[1]:
        u, n = step[0], n + 1
    rest = gens[n:]
    if not rest:
        return {u: {0: 1}}
    bmax = rest.count(l)
    amax, g = len(rest) - bmax, 1 + (F % 2 == 0)
    alpha, beta = (2 // g, F // g) if abs(F) <= g * amax else (1, amax + 1 if F > 0 else -amax - 1)
    lo = min(0, beta * bmax)  # the least index, so a negative beta shifts right exactly
    at = {alpha * a + beta * b - lo: 2 * a + F * b for a in range(amax + 1) for b in range(bmax + 1)}
    fs = [at.get(j, 0) for j in range(max(at) + 1)]  # each digit's exponent
    W = 64 * (((3 ** len(rest)).bit_length() + 64) // 64)
    cur = {u: 1 << -W * lo}
    for g in rest:
        sh = W * (beta if g == l else alpha)
        nxt: dict[SignedPerm, int] = {}
        get = nxt.get
        while cur:
            x, c = cur.popitem()
            xg, descent = times(x, g)
            if descent:  # c T_x T_g = nu^(e/2) c T_xg + (nu^(e/2) - 1) c T_x
                cs = c << sh if sh >= 0 else c >> -sh
                nxt[xg] = get(xg, 0) + cs
                nxt[x] = get(x, 0) + cs - c
            else:
                nxt[xg] = get(xg, 0) + c
        cur = nxt
    # 2^(W - 1) added to each digit leaves no borrow between digits, and that
    # top bit flipped back leaves each digit's W-bit two's complement
    width = W // 8
    top = int.from_bytes((1 << (W - 1)).to_bytes(width, "little") * len(fs), "little")
    unpack = struct.Struct(f"<{len(fs)}q").unpack
    out = {}
    while cur:
        x, c = cur.popitem()
        if c:
            raw = ((c + top) ^ top).to_bytes(width * len(fs), "little")
            if W == 64:
                digits = unpack(raw)
            else:
                digits = [int.from_bytes(raw[j : j + width], "little", signed=True)
                          for j in range(0, len(raw), width)]
            out[x] = {f: v for f, v in zip(fs, digits) if v}
    return out


def basis_product(params: HeckeParams, u: SignedPerm, w: SignedPerm) -> HeckeElem:
    """T_u * T_w, peeling a fixed reduced word of w."""
    return HeckeElem({x: LaurentPoly(c) for x, c in _peel(params, u, reduced_word(w)).items()})


def word_terms(params: HeckeParams, gens) -> dict:
    """T_g1 ... T_gn for the generator indices gens as the peel's term dicts
    {x: {e: c}}, zeros dropped; a product of words is the word of their
    letters, peeled once from the unit."""
    return _peel(params, identity(params.rank), gens)


def he_mul(params: HeckeParams, a: HeckeElem, b: HeckeElem) -> HeckeElem:
    """Product in the algebra: each T_u of a times each T_w of b, scaled by
    the product of their coefficients and summed.  One peel per pair, since
    a's coefficients lie off the lattice of exponents a peel packs."""
    acc: dict[SignedPerm, dict[int, int]] = {}
    for w, cb in b.terms.items():
        word = reduced_word(w)
        for u, ca in a.terms.items():
            scale = (ca * cb).terms
            for x, c in _peel(params, u, word).items():
                add_product(acc.setdefault(x, {}), c, scale)
    return HeckeElem({x: LaurentPoly(c) for x, c in acc.items()})


@lru_cache(maxsize=None)
def _gen_inverse(params: HeckeParams, g: int) -> HeckeElem:
    # T_g^-1 = nu_g^-1 T_g + (nu_g^-1 - 1) T_e, from the quadratic relation
    inv = LaurentPoly.nu_power(-params.gen_exponent(g))
    return HeckeElem({gen_perm(g, params.rank): inv, identity(params.rank): inv - LaurentPoly.one()})


def he_inv_basis(params: HeckeParams, w: SignedPerm) -> HeckeElem:
    """T_w^-1, the reversed word of generator inverses.

    >>> p = HeckeParams.signed(2, HalfInt(1, 2))
    >>> he_mul(p, he_inv_basis(p, (2, 1)), HeckeElem.basis((2, 1))) == HeckeElem.unit(2)
    True
    """
    out = HeckeElem.unit(params.rank)
    for g in reversed(reduced_word(w)):
        out = he_mul(params, out, _gen_inverse(params, g))
    return out
