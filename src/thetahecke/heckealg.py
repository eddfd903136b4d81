"""Generic Hecke algebra of a signed permutation group, two parameters.

The algebra over Z[nu^(1/2), nu^(-1/2)] has basis T_w indexed by group
elements, with T_u T_w = T_(uw) whenever lengths add and quadratic relations

    (T_s + 1)(T_s - nu) = 0                for the adjacent swaps,
    (T_t + 1)(T_t - nu**flip_exponent) = 0  for the sign flip,

the flip exponent being any half-integer.

Products are computed by peeling reduced words one generator at a time:
multiplying a basis element on the right by a generator either ascends
(plain relabel) or descends, in which case the quadratic relation spends a
factor of the generator's parameter.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .laurent import HalfInt, LaurentPoly, add_product, as_half
from .weylbc import SignedPerm, gen_perm, identity, length, reduced_word


@dataclass(frozen=True)
class HeckeParams:
    """Rank plus the flip parameter exponent; flip_numer is the numerator of
    the half-integer exponent."""

    rank: int
    flip_numer: int

    @classmethod
    def signed(cls, l: int, mu) -> "HeckeParams":
        return cls(l, int(as_half(mu) * 2))

    @property
    def flip_exponent(self) -> HalfInt:
        return HalfInt(self.flip_numer, 2)

    def gen_exponent(self, g: int) -> HalfInt:
        """Exponent e with parameter nu**e for generator g."""
        if not 1 <= g <= self.rank:
            raise ValueError(f"no generator {g} at rank {self.rank}")
        return self.flip_exponent if g == self.rank else HalfInt(1)


class HeckeElem:
    """A finitely supported map from group elements to ring elements."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[SignedPerm, LaurentPoly] | None = None):
        self.terms: dict[SignedPerm, LaurentPoly] = {}
        if terms:
            for w, c in terms.items():
                if not c.is_zero():
                    self.terms[w] = c

    @classmethod
    def basis(cls, w: SignedPerm, coeff: LaurentPoly | None = None) -> "HeckeElem":
        return cls({w: coeff if coeff is not None else LaurentPoly.one()})

    @classmethod
    def unit(cls, l: int) -> "HeckeElem":
        return cls.basis(identity(l))

    def __add__(self, other: "HeckeElem") -> "HeckeElem":
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, LaurentPoly.zero()) + c
            if s.is_zero():
                out.pop(w, None)
            else:
                out[w] = s
        return HeckeElem(out)

    def __eq__(self, other) -> bool:
        return isinstance(other, HeckeElem) and self.terms == other.terms

    def support(self) -> list[SignedPerm]:
        # by (length, w): sorted by w, then stably by length
        return sorted(sorted(self.terms), key=length)

    def __repr__(self) -> str:
        inner = ", ".join(f"{w}: {self.terms[w]}" for w in self.support())
        return f"HeckeElem({{{inner}}})"


def _basis_terms(params: HeckeParams, cur: dict, gens) -> dict:
    """(sum of c_x T_x) * T_g1 ... T_gn for the term dicts cur = {x: {e: c}},
    peeling the generator indices gens = g1 .. gn left to right; a reduced
    word of w gives T_w.  The peel moves cur's dicts into its result and
    mutates them.

    T_x T_g is T_xg on an ascent, a relabel; on a descent the quadratic
    relation gives nu^(e/2) T_xg + (nu^(e/2) - 1) T_x, with e = 2 for a swap
    and flip_numer for the flip, both added in one pass over c_x.  Each step
    acts on x's tuple directly: a swap exchanges entries g - 1 and g, read as
    a descent when m(x[g]) > m(x[g - 1]) for the mirrored value
    m(v) = sign(v) (l + 1 - |v|) (see weylbc.is_right_descent), and the flip
    negates the last entry, a descent when that entry is negative.
    Cancelled entries stay as 0 until the end: _elem, or hecke-mul as it
    prints, drops them.
    """
    l = params.rank
    # m(v) indexed by v itself, a negative v reading from the end
    m = [0] * (2 * l + 1)
    for v in range(1, l + 1):
        m[v], m[-v] = l + 1 - v, v - l - 1
    for g in gens:
        e = int(2 * params.gen_exponent(g))  # checks g
        flip, i = g == l, g - 1
        nxt: dict[SignedPerm, dict[int, int]] = {}
        get = nxt.get
        for x, c in cur.items():
            a = x[i]
            if flip:
                xg, descent = x[:i] + (-a,), a < 0
            else:
                b = x[g]
                xg, descent = x[:i] + (b, a) + x[g + 1 :], m[b] > m[a]
            to = get(xg)
            if descent:
                if to is None:
                    to = nxt[xg] = {}
                at = get(x)
                if at is None:
                    at = nxt[x] = {}
                for f, k in c.items():
                    h = f + e
                    to[h] = to.get(h, 0) + k
                    at[h] = at.get(h, 0) + k
                    at[f] = at.get(f, 0) - k
            elif to is None:
                # cur is dropped after this step, so its dicts can move
                nxt[xg] = c
            else:
                for f, k in c.items():
                    to[f] = to.get(f, 0) + k
        cur = nxt
    return cur


def _elem(terms: dict) -> HeckeElem:
    """The element of the term dicts {x: {e: c}}."""
    return HeckeElem({x: LaurentPoly(c) for x, c in terms.items()})


def basis_product(params: HeckeParams, u: SignedPerm, w: SignedPerm) -> HeckeElem:
    """T_u * T_w, peeling a fixed reduced word of w."""
    return _elem(_basis_terms(params, {u: {0: 1}}, reduced_word(w)))


def word_terms(params: HeckeParams, gens) -> dict:
    """T_g1 ... T_gn for the generator indices gens as the peel's term dicts
    {x: {e: c}}, cancelled entries kept as 0; a product of words is the word
    of their letters, peeled once from the unit."""
    return _basis_terms(params, {identity(params.rank): {0: 1}}, gens)


def he_mul(params: HeckeParams, a: HeckeElem, b: HeckeElem) -> HeckeElem:
    """Product in the algebra: the whole of a times each T_w of b, scaled by
    its coefficient and summed."""
    acc: dict[SignedPerm, dict[int, int]] = {}
    for w, cb in b.terms.items():
        # copies, since the peel moves and mutates the dicts it starts from
        start = {u: dict(ca.terms) for u, ca in a.terms.items()}
        for x, c in _basis_terms(params, start, reduced_word(w)).items():
            add_product(acc.setdefault(x, {}), c, cb.terms)
    return _elem(acc)


@lru_cache(maxsize=None)
def _gen_inverse(params: HeckeParams, g: int) -> HeckeElem:
    # T_g^-1 = nu_g^-1 T_g + (nu_g^-1 - 1) T_e, from the quadratic relation
    e = params.gen_exponent(g)
    l = params.rank
    return HeckeElem(
        {
            gen_perm(g, l): LaurentPoly.nu_power(-e),
            identity(l): LaurentPoly.nu_power(-e) - LaurentPoly.one(),
        }
    )


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
