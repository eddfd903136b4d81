"""Signed permutations and their Coxeter combinatorics.

The signed permutation group of rank l consists of bijections w of
{-l,...,-1,1,...,l} with w(-i) = -w(i); we store the image tuple
(w(1),...,w(l)).  Generators are numbered 1..l: index i < l is the adjacent
swap of positions i, i+1 and index l is the sign flip at the last position.
With this numbering the flip generator sorts after every swap, which fixes
the deterministic choice made by ``reduced_word``.

Coset combinatorics here covers the two parabolic shapes the theta module
needs: a two-block symmetric subgroup inside the unsigned group, and a
symmetric-times-signed block subgroup inside the full signed group.
Distinguished (minimal length) left-coset representatives are produced in
closed form and checked against descent criteria.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from . import VerificationError

SignedPerm = tuple[int, ...]


# -- elementary group operations ------------------------------------------


def identity(l: int) -> SignedPerm:
    return tuple(range(1, l + 1))


def mul(a: SignedPerm, b: SignedPerm) -> SignedPerm:
    """Composition a after b: (a*b)(i) = a(b(i)), signs multiplying through.

    >>> mul((2, 1), (1, -2))
    (2, -1)
    """
    if len(a) != len(b):
        raise ValueError(f"cannot compose ranks {len(a)} and {len(b)}")
    out = []
    for v in b:
        img = a[abs(v) - 1]
        out.append(img if v > 0 else -img)
    return tuple(out)


def inv(w: SignedPerm) -> SignedPerm:
    out = [0] * len(w)
    for i, v in enumerate(w, start=1):
        if v > 0:
            out[v - 1] = i
        else:
            out[-v - 1] = -i
    return tuple(out)


def gen_perm(g: int, l: int) -> SignedPerm:
    """The generator with index g (swap for g < l, sign flip for g == l)."""
    if not 1 <= g <= l:
        raise ValueError(f"no generator {g} at rank {l}")
    img = list(range(1, l + 1))
    if g == l:
        img[l - 1] = -l
    else:
        img[g - 1], img[g] = img[g], img[g - 1]
    return tuple(img)


def word_to_perm(word: list[int], l: int) -> SignedPerm:
    """Product of generators, leftmost factor applied last (outermost)."""
    out = identity(l)
    for g in word:
        out = mul(out, gen_perm(g, l))
    return out


# -- length ----------------------------------------------------------------


def _mirror_value(v: int, l: int) -> int:
    return l + 1 - v if v > 0 else -(l + 1 + v)


def length(w: SignedPerm) -> int:
    """Coxeter length.

    Computed by the standard type-B statistic (inversions plus absolute
    values at negative entries) after mirroring coordinates; the mirroring
    accounts for our flip generator living at the last position.

    >>> length((1, -2))
    1
    >>> length((-1, 2))
    3
    """
    # w mirrored: positions reversed, each v sent to sign(v) (l + 1 - |v|)
    m = len(w) + 1
    u = [m - v if v > 0 else -m - v for v in reversed(w)]
    return sum([a > b for a, b in itertools.combinations(u, 2)]) - sum([v for v in u if v < 0])


def is_right_descent(w, g: int) -> bool:
    """Whether length(w * s_g) < length(w), read from two entries.

    In mirrored coordinates a swap is a descent at an inversion and the flip
    at a negative first entry (Bjorner-Brenti, Combinatorics of Coxeter
    Groups, 2005, Section 8.1).  Left descents of w are the right descents
    of inv(w).

    >>> is_right_descent((-1, 2), 1), is_right_descent((2, 1), 2)
    (True, False)
    """
    l = len(w)
    if g == l:
        return w[l - 1] < 0
    return _mirror_value(w[g], l) > _mirror_value(w[g - 1], l)


def reduced_word(w: SignedPerm) -> list[int]:
    """A reduced word, deterministic: lowest-index left descent first.

    Peels right descents of inv(w), since inv(s_g w) = inv(w) s_g.  Applying
    s_g at the lowest descent g leaves positions below g - 1 untouched, so
    the next search starts at g - 1.

    >>> reduced_word((-1, 2))
    [1, 2, 1]
    """
    l = len(w)
    cur = list(inv(w))
    word = []
    g = 1
    while g <= l:
        if not is_right_descent(cur, g):
            g += 1
            continue
        word.append(g)
        if g == l:
            cur[l - 1] = -cur[l - 1]
        else:
            cur[g - 1], cur[g] = cur[g], cur[g - 1]
        g = max(g - 1, 1)
    return word


# -- special elements -------------------------------------------------------


def flip_at(k: int, l: int) -> SignedPerm:
    """Sign change at position k alone (conjugate of the flip generator).

    >>> flip_at(1, 2)
    (-1, 2)
    """
    if not 1 <= k <= l:
        raise ValueError(f"no position {k} at rank {l}")
    img = list(range(1, l + 1))
    img[k - 1] = -k
    return tuple(img)


def swap_range(i: int, j: int, l: int) -> SignedPerm:
    """The cycle product s_(j-1)...s_i for i <= j (identity when i == j)."""
    if not 1 <= i <= j <= l:
        raise ValueError(f"swap_range needs 1 <= i <= j <= l, got {(i, j, l)}")
    return word_to_perm(list(range(j - 1, i - 1, -1)), l)


# -- parabolic cosets --------------------------------------------------------


@dataclass(frozen=True)
class CosetSpec:
    """A block parabolic subgroup, for distinguished-representative purposes.

    kind 'sym_block': the subgroup S_(n-k) x S_k of the unsigned group S_n,
    blocks {1..n-k} and {n-k+1..n}.

    kind 'mixed_block': the subgroup S_k x W_(n-k) of the signed group W_n,
    S_k unsigned on {1..k}, full signed group on {k+1..n}.
    """

    kind: str
    n: int
    k: int

    def __post_init__(self):
        if self.kind not in ("sym_block", "mixed_block") or not 0 <= self.k <= self.n:
            raise ValueError(f"no coset shape {self.kind} with n={self.n}, k={self.k}")

    def parabolic_gens(self) -> list[int]:
        n, k = self.n, self.k
        if self.kind == "sym_block":
            return [g for g in range(1, n) if g != n - k]
        gens = [g for g in range(1, n) if g != k]
        if n - self.k >= 1:
            gens.append(n)  # the flip generator belongs to the signed block
        return gens


def is_distinguished(w: SignedPerm, spec: CosetSpec) -> bool:
    """No right descent at any parabolic generator."""
    if len(w) != spec.n:
        raise ValueError(f"{w} is not of rank {spec.n}")
    return not any(is_right_descent(w, g) for g in spec.parabolic_gens())


def coset_table(spec: CosetSpec) -> tuple[tuple[int, SignedPerm], ...]:
    """Minimal-length left-coset representatives with their lengths, as
    (length, representative) pairs sorted by (length, images).

    sym_block: one representative per k-subset of values routed to the second
    block, increasing within each block.

    mixed_block: one representative per choice of k signed values for the
    leading block.  The head is sorted by the mirrored-value order (the flip
    generator acts at the last position, so the minimal arrangement sorts
    values v by decreasing sign(v)*(n+1-|v|)); the remaining absolute values
    sit on the tail, positive and increasing.
    """
    n, k = spec.n, spec.k
    reps = []
    if spec.kind == "sym_block":
        for subset in itertools.combinations(range(1, n + 1), k):
            chosen = set(subset)
            rest = [v for v in range(1, n + 1) if v not in chosen]
            reps.append(tuple(rest + sorted(subset)))
    else:
        for subset in itertools.combinations(range(1, n + 1), k):
            chosen = set(subset)
            rest = [v for v in range(1, n + 1) if v not in chosen]
            for signs in itertools.product((1, -1), repeat=k):
                head = [s * v for s, v in zip(signs, subset)]
                head.sort(key=lambda v: -_mirror_value(v, n))
                reps.append(tuple(head + rest))
    table = sorted((length(d), d) for d in reps)
    for _, d in table:
        if not is_distinguished(d, spec):
            raise VerificationError(f"{d} has a right descent in the parabolic of {spec}")
    return tuple(table)


@lru_cache(maxsize=None)
def distinguished_reps(spec: CosetSpec) -> tuple[SignedPerm, ...]:
    """The representatives of coset_table, without their lengths."""
    return tuple(d for _, d in coset_table(spec))


def deodhar_transfer(d: SignedPerm, g: int, spec: CosetSpec):
    """Multiply a distinguished representative by a generator on the left.

    By Deodhar's lemma (Geck-Pfeiffer, Characters of Finite Coxeter Groups and
    Iwahori-Hecke Algebras, 2000, Lemma 2.1.2) exactly one case holds: g*d is
    shorter and distinguished, returned as ('coset', g*d, -1); g*d = d*h for a
    parabolic generator h, returned as ('transfer', h); or g*d is longer and
    distinguished, returned as ('coset', g*d, +1).

    h = d^-1 s_g d moves the positions that hold the values s_g moves.  For a
    swap those are the positions of g and g + 1, read signed from inv(d): h is
    the swap of two adjacent positions when they are adjacent with equal
    signs.  For the flip it is the position of l: h is the flip generator when
    that is the last position.
    """
    l = len(d)
    d_inv = inv(d)
    if is_right_descent(d_inv, g):
        return ("coset", mul(gen_perm(g, l), d), -1)
    if g == l:
        t = l if abs(d_inv[l - 1]) == l else None
    else:
        p, q = d_inv[g - 1], d_inv[g]
        # |p - q| = 1 only for equal signs: opposite ones differ by at least 3
        t = min(abs(p), abs(q)) if abs(p - q) == 1 else None
    if t in spec.parabolic_gens():
        return ("transfer", t)
    return ("coset", mul(gen_perm(g, l), d), 1)


# -- enumeration and conjugacy ----------------------------------------------


def all_unsigned_perms(l: int) -> list[SignedPerm]:
    return [tuple(p) for p in itertools.permutations(range(1, l + 1))]


def group_order(l: int) -> int:
    out = 1
    for i in range(1, l + 1):
        out *= 2 * i
    return out


def _partitions(n: int, cap: int | None = None) -> list[tuple[int, ...]]:
    if n == 0:
        return [()]
    cap = n if cap is None else min(cap, n)
    out = []
    for head in range(cap, 0, -1):
        for rest in _partitions(n - head, head):
            out.append((head,) + rest)
    return out


def partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of n, decreasing parts, reverse-lex order."""
    return _partitions(n)


def bipartitions(m: int) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """All bipartitions of total size m, deterministic order."""
    out = []
    for a in range(m + 1):
        for alpha in partitions(a):
            for beta in partitions(m - a):
                out.append((alpha, beta))
    return out


def signed_centralizer(cls: tuple[tuple[int, ...], tuple[int, ...]]) -> int:
    """The centralizer order of the class of signed cycle type cls = (lam, mu):
    a j-cycle of either sign repeated m times contributes (2j)^m m!."""
    z = 1
    for rho in cls:
        for v in set(rho):
            m = rho.count(v)
            z *= (2 * v) ** m * math.factorial(m)
    return z


def class_rep(lam: tuple[int, ...], mu: tuple[int, ...], l: int) -> SignedPerm:
    """A block representative with the given signed cycle type."""
    if sum(lam) + sum(mu) != l:
        raise ValueError(f"the type {(lam, mu)} is not of rank {l}")
    img = [0] * l
    pos = 0
    for j in lam:
        for t in range(j):
            img[pos + t] = pos + t + 2 if t < j - 1 else pos + 1
        pos += j
    for j in mu:
        for t in range(j):
            img[pos + t] = pos + t + 2 if t < j - 1 else -(pos + 1)
        pos += j
    return tuple(img)


def conjugacy_classes(l: int) -> list[dict]:
    """Classes of the rank-l signed group: signed cycle type pairs with
    representative and size (order / centralizer product)."""
    order = group_order(l)
    out = []
    for lam, mu in bipartitions(l):
        size = order // signed_centralizer((lam, mu))
        out.append({"type": (lam, mu), "rep": class_rep(lam, mu, l), "size": size})
    out.sort(key=lambda c: c["type"])
    return out
