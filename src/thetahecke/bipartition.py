"""Partition and bipartition combinatorics for the signed Weyl groups.

Partitions are tuples of weakly decreasing positive integers.  A bipartition
(alpha, beta) with |alpha| + |beta| = m labels an irreducible character of
the rank-m signed permutation group through

    induce from W_a x W_b the character (chi_alpha o proj) (x) ((chi_beta o proj) . eps_b)

where proj forgets signs and eps is the character that is trivial on swaps
and -1 on sign flips.  Under this labeling (m) x () is the trivial character
and () x (m) is eps itself.

VirtualSum values are plain dicts keyed by partitions or bipartitions with
integer multiplicities; zero entries are dropped.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from . import VerificationError
from .weylbc import bipartitions, group_order, signed_centralizer

Partition = tuple[int, ...]
Bipartition = tuple[Partition, Partition]
ClassType = tuple[Partition, Partition]


def check_partition(lam) -> Partition:
    lam = tuple(operator.index(x) for x in lam)
    if not all(a >= b for a, b in zip(lam, lam[1:])) or not all(x > 0 for x in lam):
        raise ValueError(f"not a partition: {lam}")
    return lam


# the classes and the irreducibles of W_m are both indexed by pairs of
# partitions of total size m: (positive type, negative type) for a class
signed_class_types = bipartitions


# -- symmetric group characters (Murnaghan-Nakayama) --------------------------


@lru_cache(maxsize=None)
def _rim_hooks(lam: Partition, r: int) -> tuple[tuple[Partition, int], ...]:
    """The (lam minus an r-rim hook, (-1)^height) of every r-rim hook of lam.

    On the beta-numbers lam_i + (rows - 1 - i), removing an r-rim hook moves
    one bead b to an empty b - r, and its height is the number of beads passed.
    """
    rows = len(lam)
    betas = [lam[i] + (rows - 1 - i) for i in range(rows)]
    bset = set(betas)
    out = []
    for b in betas:
        b2 = b - r
        if b2 < 0 or b2 in bset:
            continue
        crossed = sum(1 for c in betas if b2 < c < b)
        newb = sorted((bset - {b}) | {b2}, reverse=True)
        newlam = tuple(v - (rows - 1 - i) for i, v in enumerate(newb))
        out.append((tuple(v for v in newlam if v), -1 if crossed % 2 else 1))
    return tuple(out)


@lru_cache(maxsize=None)
def sn_char(lam: Partition, rho: Partition) -> int:
    """chi_lam evaluated on the class of cycle type rho (Murnaghan-Nakayama)."""
    if sum(lam) != sum(rho):
        raise ValueError(f"chi_{lam} needs a class of size {sum(lam)}, got {rho}")
    if not rho:
        return 1
    return sum(sign * sn_char(nu, rho[1:]) for nu, sign in _rim_hooks(lam, rho[0]))


# -- Pieri operators ----------------------------------------------------------


def pieri_add(lam: Partition, i: int) -> dict[Partition, int]:
    """Partitions obtained by adding a horizontal i-strip (at most one new
    cell per column): new_0 >= old_0 >= new_1 >= old_1 >= ..."""
    return dict.fromkeys(_add_strip(lam, i), 1)


def pieri_remove(lam: Partition, i: int) -> dict[Partition, int]:
    """Partitions obtained by removing a horizontal i-strip."""
    return dict.fromkeys(_remove_strip(lam, i), 1)


def _interlaced(bounds: tuple[tuple[int, int], ...], size: int) -> tuple[Partition, ...]:
    """Partitions of size `size` with lo_j <= part_j <= hi_j for the j-th
    (lo_j, hi_j) of bounds, zero parts dropped, in lexicographic order.

    The parts are independent, so each is picked within its bounds and within
    what the rows after it can still absorb (the sums of their bounds).  The
    search keeps its own stack, so a partition of any length fits.
    """
    out: list[Partition] = []
    stack = [((), size, sum(lo for lo, _ in bounds), sum(hi for _, hi in bounds))]
    while stack:
        acc, remaining, lo_rest, hi_rest = stack.pop()
        if len(acc) == len(bounds):
            if remaining == 0:
                out.append(tuple(v for v in acc if v))
            continue
        lo, hi = bounds[len(acc)]
        lo_rest, hi_rest = lo_rest - lo, hi_rest - hi
        # pushed in reverse, so the smallest part is popped first
        for v in range(min(hi, remaining - lo_rest), max(lo, remaining - hi_rest) - 1, -1):
            stack.append((acc + (v,), remaining - v, lo_rest, hi_rest))
    return tuple(out)


@lru_cache(maxsize=None)
def _add_strip(lam: Partition, i: int) -> tuple[Partition, ...]:
    # a horizontal strip interlaces: old_j <= new_j <= old_(j-1), one row more
    if i < 0:
        raise ValueError(f"strip size must be non-negative, got {i}")
    above = (lam[0] + i if lam else i,) + lam
    return _interlaced(tuple(zip(lam + (0,), above)), sum(lam) + i)


@lru_cache(maxsize=None)
def _remove_strip(lam: Partition, i: int) -> tuple[Partition, ...]:
    # old_(j+1) <= new_j <= old_j
    if i < 0:
        raise ValueError(f"strip size must be non-negative, got {i}")
    return _interlaced(tuple(zip(lam[1:] + (0,), lam)), sum(lam) - i)


def r1(lam: Partition) -> int:
    """Largest removable horizontal-strip size: every part can drop to the
    next one, so the strip has lam_0 cells."""
    return lam[0] if lam else 0


# -- virtual sums -------------------------------------------------------------


def vs_add(acc: dict, key, mult: int = 1) -> None:
    c = acc.get(key, 0) + mult
    if c:
        acc[key] = c
    else:
        acc.pop(key, None)


def is_multiplicity_free(vs: dict) -> bool:
    return all(v in (0, 1) for v in vs.values())


def vs_to_json(vs: dict) -> list[dict]:
    items = sorted(vs.items())
    return [{"bipartition": [list(a), list(b)], "mult": m} for (a, b), m in items]


# -- signed-group characters ---------------------------------------------------


def wl_char(bip: Bipartition, cls: ClassType) -> int:
    """Character of the bipartition-labeled irreducible on a class.

    Evaluated by the type-B Murnaghan-Nakayama rule (Halverson-Ram 1996 at
    q = 1; Geck-Pfeiffer 2000, 10.3): the class's first positive cycle, or
    its first negative one when it has none, removes a rim hook of its length
    from alpha or from beta, signed by the hook's height.  A negative cycle
    also negates the beta terms, since beta carries eps: () x (1) is -1 on a
    sign flip.

    >>> wl_char(((), (1,)), ((), (1,)))
    -1
    """
    alpha, beta = bip
    lam, mu = cls
    if sum(alpha) + sum(beta) != sum(lam) + sum(mu):
        raise ValueError(f"the character of {bip} needs a class of its rank, got {cls}")
    return _wl_char(alpha, beta, lam, mu)


@lru_cache(maxsize=None)
def _wl_char(alpha: Partition, beta: Partition, lam: Partition, mu: Partition) -> int:
    """wl_char's recursion, on arguments of equal rank: removing a rim hook
    keeps them equal, so no call checks them."""
    if lam:
        r, lam, flip = lam[0], lam[1:], 1
    elif mu:
        r, mu, flip = mu[0], mu[1:], -1
    else:
        return 1
    total = 0
    for a, s in _rim_hooks(alpha, r):
        total += s * _wl_char(a, beta, lam, mu)
    for b, s in _rim_hooks(beta, r):
        total += flip * s * _wl_char(alpha, b, lam, mu)
    return total


def wl_char_table(m: int) -> dict[Bipartition, list[int]]:
    """Each rank-m irreducible's character as one row, in signed_class_types order."""
    classes = signed_class_types(m)
    return {(alpha, beta): [_wl_char(alpha, beta, lam, mu) for lam, mu in classes]
            for alpha, beta in bipartitions(m)}


# -- theta lifts ---------------------------------------------------------------


def theta_lift(alpha: Partition, beta: Partition, l: int, lp: int) -> dict[Bipartition, int]:
    """Lift of the (alpha, beta)-labeled representation from rank l to rank l'.

    Sum over k <= min(l, l') of (remove an (l-k)-strip from beta) x (add an
    (l'-k)-strip to alpha); checked to be multiplicity-free and of rank l'.
    No strip of more than |beta| cells is removable, so k starts at |alpha|.
    """
    if sum(alpha) + sum(beta) != l or lp < 0:
        raise ValueError(f"cannot lift ({alpha}, {beta}) from rank {l} to rank {lp}")
    out: dict[Bipartition, int] = {}
    for k in range(sum(alpha), min(l, lp) + 1):
        for ap in pieri_remove(beta, l - k):
            for bp in pieri_add(alpha, lp - k):
                vs_add(out, (ap, bp))
    wrong = [x for x in out if sum(x[0]) + sum(x[1]) != lp]
    if wrong:
        raise VerificationError(f"lift of ({alpha}, {beta}) to rank {lp} contains {wrong[0]}")
    if not is_multiplicity_free(out):
        raise VerificationError(f"lift of ({alpha}, {beta}) to rank {lp} is not multiplicity-free")
    return out


def _strip_counts(lam: Partition) -> list[int]:
    """[x^d] of the product over rows j of 1 + x + ... + x^(lam_j - lam_(j+1)),
    for d up to lam_0: the ways to spread d cells over the rows when row j
    takes at most lam_j - lam_(j+1) (lam_r = 0 past the last row)."""
    poly = [1]
    for w in (a - b for a, b in zip(lam, lam[1:] + (0,))):
        if w:
            # times (1 - x^(w+1)) / (1 - x): a running sum over a window of w + 1
            padded, acc, poly = poly + [0] * w, 0, []
            for d, c in enumerate(padded):
                acc += c - (padded[d - w - 1] if d > w else 0)
                poly.append(acc)
    return poly


def lift_size(alpha: Partition, beta: Partition, l: int, lp: int) -> int:
    """The number of terms theta_lift enumerates, counted without enumerating
    them: over k, the removable (l-k)-strips of beta times the addable
    (l'-k)-strips of alpha.  Removing a strip takes at most beta_j - beta_(j+1)
    cells from row j; adding one puts at most alpha_(j-1) - alpha_j cells into
    row j >= 1 (one row more, below the last) and the rest into the first row,
    so an added i-strip is a spread of at most i cells over rows j >= 1."""
    if sum(alpha) + sum(beta) != l or lp < 0:
        raise ValueError(f"cannot lift ({alpha}, {beta}) from rank {l} to rank {lp}")
    removed = _strip_counts(beta)
    added = list(accumulate(_strip_counts(alpha)))
    return sum(
        removed[l - k] * added[min(lp - k, len(added) - 1)]
        for k in range(max(0, l - len(removed) + 1), min(l, lp) + 1)
    )


# -- nu = 1 module decomposition ----------------------------------------------


def expected_decomposition(l: int, lp: int) -> dict[tuple[Bipartition, Bipartition], int]:
    """Irreducible content of the nu=1 module: the graph of the theta lift,
    each rank-l label paired with every term of its lift to rank l'.

    Grade k's induced character pairs (gamma, beta) with (eta, beta') for
    each bipartition (gamma, eta) of k, beta an added (l-k)-strip on eta and
    beta' an added (l'-k)-strip on gamma.  Read from (gamma, beta), eta is
    beta less a removed strip, so these are the k-th terms of the lift of
    (gamma, beta).
    """
    return {
        (sigma, rho): m
        for sigma in bipartitions(l)
        for rho, m in theta_lift(*sigma, l, lp).items()
    }


def decompose(charfn: dict[tuple[ClassType, ClassType], int], l: int, lp: int
              ) -> dict[tuple[Bipartition, Bipartition], int]:
    """Multiplicities of product-group irreducibles in an exact character.

    Works on rows in signed_class_types order: the character as one row per
    left class, each irreducible's character table row.  Raises
    VerificationError if any inner product fails to be a nonnegative
    integer, or if the multiplicities fail to reconstruct the input classwise.
    """
    classes_l = signed_class_types(l)
    classes_lp = signed_class_types(lp)
    rows_l = wl_char_table(l)
    rows_lp = wl_char_table(lp)
    char_rows = [[charfn.get((cl, cr), 0) for cr in classes_lp] for cl in classes_l]
    # each class weighted by its size |W_m| / z, so the sums stay in integers
    size_l = [group_order(l) // signed_centralizer(cl) for cl in classes_l]
    size_lp = [group_order(lp) // signed_centralizer(cr) for cr in classes_lp]
    order = group_order(l) * group_order(lp)
    mults: dict[tuple[Bipartition, Bipartition], int] = {}
    for bl, row_bl in rows_l.items():
        u = [0] * len(classes_lp)
        for x, size, row in zip(row_bl, size_l, char_rows):
            if x:
                xl = x * size
                u = [a + xl * c for a, c in zip(u, row)]
        w = list(map(operator.mul, u, size_lp))
        for br, row_br in rows_lp.items():
            total = sum(map(operator.mul, w, row_br))
            m, rem = divmod(total, order)
            if rem or m < 0:
                raise VerificationError(
                    f"multiplicity of {(bl, br)} is {Fraction(total, order)}, not a count"
                )
            if m:
                mults[(bl, br)] = m
    # per left irreducible, the sum of its right partners' rows times their counts
    partners: dict[Bipartition, list[int]] = {}
    for (bl, br), m in mults.items():
        acc = partners.get(bl, [0] * len(classes_lp))
        partners[bl] = [a + m * x for a, x in zip(acc, rows_lp[br])]
    for i, (cl, row) in enumerate(zip(classes_l, char_rows)):
        rec = [0] * len(classes_lp)
        for bl, prow in partners.items():
            x = rows_l[bl][i]
            if x:
                rec = [a + x * p for a, p in zip(rec, prow)]
        if rec != row:
            cr = next(cr for cr, a, b in zip(classes_lp, rec, row) if a != b)
            raise VerificationError(f"multiplicities fail to reconstruct the class {(cl, cr)}")
    return mults
