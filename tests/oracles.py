"""Independent routes the tests compare the package against: brute-force
scans of the signed permutation group, the transfer across a coset by a
full product, symmetric-group characters and products computed by textbook
formulas, and signed-group characters as induced sums, the nu = 1
character and its decomposition taken one class pair at a time, a word's
nu = 1 product composed column by column, a product of two Hecke words
taken element by element, the transfer generators' columns built label by
label, the relation suite checked on every column, letter by letter, and
a hecke-mul product as JSON objects, for json.dumps to write and to parse
back, and a conservation-scan report built from each label's own check.
The package itself needs none of them.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache

from thetahecke import VerificationError
from thetahecke.bipartition import (
    Bipartition,
    ClassType,
    Partition,
    part_union,
    signed_class_types,
    sn_char,
    vs_add,
    wl_char,
)
from thetahecke.dualpair import TowerConfig, conservation_check, mu_of
from thetahecke.heckealg import HeckeElem, HeckeParams, he_mul
from thetahecke.laurent import LaurentPoly, format_half
from thetahecke.thetamod import ThetaModule, _apply, _column, _quad_terms, _stride
from thetahecke.weylbc import (
    CosetSpec,
    SignedPerm,
    all_unsigned_perms,
    bipartitions,
    conjugacy_classes,
    deodhar_transfer,
    gen_perm,
    group_order,
    identity,
    inv,
    is_right_descent,
    length,
    mul,
    partitions,
    signed_centralizer,
)


# -- signed permutations ---------------------------------------------------


def deodhar_transfer_by_product(d: SignedPerm, g: int, spec: CosetSpec):
    """deodhar_transfer by composing h = d^-1 (g d) in full and comparing it
    with every parabolic generator's permutation: O(l^2) a call."""
    l = len(d)
    gd = mul(gen_perm(g, l), d)
    d_inv = inv(d)
    if is_right_descent(d_inv, g):
        return ("coset", gd, -1)
    h = mul(d_inv, gd)
    for t in spec.parabolic_gens():
        if h == gen_perm(t, l):
            return ("transfer", t)
    return ("coset", gd, 1)


def num_flips(w: SignedPerm) -> int:
    """Number of sign-flip letters in any reduced word (= negative entries)."""
    return sum(1 for v in w if v < 0)


def left_descents(w: SignedPerm) -> list[int]:
    w_inv = inv(w)
    return [g for g in range(1, len(w) + 1) if is_right_descent(w_inv, g)]


def reduced_word_rightmost(w: SignedPerm) -> list[int]:
    """An alternative reduced word peeling highest-index right descents."""
    l = len(w)
    word = []
    cur = w
    lw = length(cur)
    while cur != identity(l):
        g = next(
            g
            for g in range(l, 0, -1)
            if length(mul(cur, gen_perm(g, l))) < lw
        )
        word.insert(0, g)
        cur = mul(cur, gen_perm(g, l))
        lw -= 1
    return word


def _perm_sort_key(w: SignedPerm):
    return (length(w), w)


def distinguished_reps_bruteforce(spec: CosetSpec) -> tuple[SignedPerm, ...]:
    """Independent route: scan the whole group for coset minima (small n)."""
    group = (
        all_unsigned_perms(spec.n) if spec.kind == "sym_block" else all_signed_perms(spec.n)
    )
    best: dict[tuple, SignedPerm] = {}
    for w in group:
        key = _coset_key(w, spec)
        cur = best.get(key)
        if cur is None or _perm_sort_key(w) < _perm_sort_key(cur):
            best[key] = w
    return tuple(sorted(best.values(), key=_perm_sort_key))


def _coset_key(w: SignedPerm, spec: CosetSpec):
    n, k = spec.n, spec.k
    if spec.kind == "sym_block":
        return (tuple(sorted(w[: n - k])), tuple(sorted(w[n - k :])))
    return (tuple(sorted(w[:k])), tuple(sorted(abs(v) for v in w[k:])))


def all_signed_perms(l: int) -> list[SignedPerm]:
    out = []
    for p in itertools.permutations(range(1, l + 1)):
        for signs in itertools.product((1, -1), repeat=l):
            out.append(tuple(s * v for s, v in zip(signs, p)))
    return out


def cycle_type(w: SignedPerm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Signed cycle type: (positive-cycle lengths, negative-cycle lengths),
    each sorted decreasingly.  A cycle is negative when the signs along it
    multiply to -1.

    >>> cycle_type((1, -2))
    ((1,), (1,))
    """
    l = len(w)
    seen = [False] * (l + 1)
    pos, neg = [], []
    for start in range(1, l + 1):
        if seen[start]:
            continue
        i, sign, size = start, 1, 0
        while True:
            seen[i] = True
            size += 1
            v = w[i - 1]
            if v < 0:
                sign = -sign
            i = abs(v)
            if i == start:
                break
        (pos if sign > 0 else neg).append(size)
    return tuple(sorted(pos, reverse=True)), tuple(sorted(neg, reverse=True))


def bfs_lengths(l: int) -> dict[SignedPerm, int]:
    """Word lengths by breadth-first search over the Cayley graph."""
    start = identity(l)
    dist = {start: 0}
    frontier = [start]
    gens = [gen_perm(g, l) for g in range(1, l + 1)]
    while frontier:
        nxt = []
        for w in frontier:
            for gp in gens:
                u = mul(gp, w)
                if u not in dist:
                    dist[u] = dist[w] + 1
                    nxt.append(u)
        frontier = nxt
    return dist


# -- symmetric-group characters and products -------------------------------


def sym_centralizer(rho: Partition) -> int:
    z = 1
    for v in set(rho):
        m = rho.count(v)
        z *= v**m * math.factorial(m)
    return z


def sn_dim(lam: Partition) -> int:
    """Hook length formula; independent route to sn_char at the identity."""
    n = sum(lam)
    if n == 0:
        return 1
    cols = [sum(1 for v in lam if v > j) for j in range(lam[0])]
    hooks = 1
    for i, v in enumerate(lam):
        for j in range(v):
            hooks *= (v - j) + (cols[j] - i) - 1
    return math.factorial(n) // hooks


@lru_cache(maxsize=None)
def sym_product_pair(alpha: Partition, gamma: Partition) -> tuple:
    """chi_alpha . chi_gamma expanded in irreducibles of the larger group.

    Multiplicities are induction coefficients computed by exact character
    inner products; when one factor is a single row this reduces to Pieri
    addition, which serves as an independent check in the tests.
    """
    a, c = sum(alpha), sum(gamma)
    n = a + c
    out = {}
    for lam in partitions(n):
        m = Fraction(0)
        for rho1 in partitions(a):
            x1 = sn_char(alpha, rho1)
            if not x1:
                continue
            for rho2 in partitions(c):
                x2 = sn_char(gamma, rho2)
                if not x2:
                    continue
                m += Fraction(x1 * x2 * sn_char(lam, part_union(rho1, rho2)),
                              sym_centralizer(rho1) * sym_centralizer(rho2))
        if m.denominator != 1 or m < 0:
            raise VerificationError(
                f"multiplicity of {lam} in {alpha} x {gamma} is {m}, not a nonnegative integer"
            )
        if m:
            out[lam] = int(m)
    return tuple(sorted(out.items()))


def sym_product(alpha: Partition, gamma: Partition) -> dict[Partition, int]:
    return dict(sym_product_pair(alpha, gamma))


def bip_product(a, b) -> dict[Bipartition, int]:
    """Product of bipartition sums, slot by slot."""
    if isinstance(a, tuple):
        a = {a: 1}
    if isinstance(b, tuple):
        b = {b: 1}
    out: dict[Bipartition, int] = {}
    for (a1, a2), m1 in a.items():
        for (b1, b2), m2 in b.items():
            for p1, c1 in sym_product(a1, b1).items():
                for p2, c2 in sym_product(a2, b2).items():
                    vs_add(out, (p1, p2), m1 * m2 * c1 * c2)
    return out


def eps_twist(a) -> dict[Bipartition, int]:
    """Tensoring with the full eps character swaps the two slots."""
    if isinstance(a, tuple):
        a = {a: 1}
    out: dict[Bipartition, int] = {}
    for (a1, a2), m in a.items():
        vs_add(out, (a2, a1), m)
    return out


# -- signed-group characters ---------------------------------------------------


def part_splits(lam: Partition):
    """All ways to split the multiset of parts into an ordered pair."""
    vals = sorted(set(lam), reverse=True)
    mults = [lam.count(v) for v in vals]
    for pick in itertools.product(*(range(m + 1) for m in mults)):
        first = tuple(v for v, c in zip(vals, pick) for _ in range(c))
        second = tuple(v for v, c, m in zip(vals, pick, mults) for _ in range(m - c))
        yield first, second


@lru_cache(maxsize=None)
def wl_char_induced(bip: Bipartition, cls: ClassType) -> int:
    """Character of the bipartition-labeled irreducible on a class; an
    independent route to wl_char's rim-hook rule.

    Evaluated by the induced-character sum over the block subgroup
    W_a x W_b, with conjugacy classes fused by part-multiset union.
    """
    alpha, beta = bip
    lam, mu = cls
    a = sum(alpha)
    if a + sum(beta) != sum(lam) + sum(mu):
        raise ValueError(f"the character of {bip} needs a class of its rank, got {cls}")
    z = signed_centralizer(cls)
    total = 0
    for lam1, lam2 in part_splits(lam):
        for mu1, mu2 in part_splits(mu):
            if sum(lam1) + sum(mu1) != a:
                continue
            x1 = sn_char(alpha, part_union(lam1, mu1))
            if not x1:
                continue
            x2 = sn_char(beta, part_union(lam2, mu2))
            if not x2:
                continue
            # z / (z1 z2) is the index of the block class's centralizer
            index, rem = divmod(z, signed_centralizer((lam1, mu1)) * signed_centralizer((lam2, mu2)))
            if rem:
                raise VerificationError(
                    f"character of {bip} on class {cls}: a class index is not an integer")
            sign = -1 if len(mu2) % 2 else 1
            total += sign * x1 * x2 * index
    return total


# -- the nu = 1 character ---------------------------------------------------------


def character_by_class(rep) -> dict:
    """The trace of a GroupRepAtOne on one representative per class pair, each
    class product built on its own from its word.

    Keyed by ((pos_type, neg_type), (pos_type, neg_type)).
    """
    out = {}
    for cl in conjugacy_classes(rep.l):
        ml = rep.rep_left(cl["rep"])
        for cr in conjugacy_classes(rep.lp):
            mr = rep.rep_right(cr["rep"])
            # trace(ml mr) = sum over p of row p of ml dotted with column p of mr
            out[(cl["type"], cr["type"])] = sum(
                c * ml[r].get(p, 0) for p, col in enumerate(mr) for r, c in col.items()
            )
    return out


def decompose_by_classes(charfn: dict[tuple[ClassType, ClassType], int], l: int, lp: int
                         ) -> dict[tuple[Bipartition, Bipartition], int]:
    """decompose one class pair at a time: each inner product sums over class
    dicts with one wl_char call per term, and the reconstruction sums over
    every multiplicity for each class pair.  The same errors, word for word.
    """
    classes_l = signed_class_types(l)
    classes_lp = signed_class_types(lp)
    size_l = {cl: group_order(l) // signed_centralizer(cl) for cl in classes_l}
    size_lp = {cr: group_order(lp) // signed_centralizer(cr) for cr in classes_lp}
    order = group_order(l) * group_order(lp)
    mults: dict[tuple[Bipartition, Bipartition], int] = {}
    for bl in bipartitions(l):
        u = {cr: 0 for cr in classes_lp}
        for cl in classes_l:
            xl = size_l[cl] * wl_char(bl, cl)
            if xl:
                for cr in classes_lp:
                    u[cr] += xl * charfn.get((cl, cr), 0)
        for br in bipartitions(lp):
            total = sum(v * size_lp[cr] * wl_char(br, cr) for cr, v in u.items() if v)
            m, rem = divmod(total, order)
            if rem or m < 0:
                raise VerificationError(
                    f"multiplicity of {(bl, br)} is {Fraction(total, order)}, not a count"
                )
            if m:
                mults[(bl, br)] = m
    for cl in classes_l:
        for cr in classes_lp:
            rec = sum(m * wl_char(bl, cl) * wl_char(br, cr) for (bl, br), m in mults.items())
            if rec != charfn.get((cl, cr), 0):
                raise VerificationError(f"multiplicities fail to reconstruct the class {(cl, cr)}")
    return mults


def product_by_columns(rep, keys) -> list:
    """The sparse columns of a word's product at nu = 1, every letter applied
    to every column with the general _apply, zeros dropped; the rightmost
    letter acts first, on the identity by reading its own columns, and the
    empty word is the identity."""
    cols = None
    for key in reversed(keys):
        m = rep._mats[key]
        if cols is None:
            cols = [dict(col) for col in m]
        else:
            cols = [{r: c for r, c in _apply(m, col.items(), rep.dim).items() if c} for col in cols]
    return [{p: 1} for p in range(rep.dim)] if cols is None else cols


# -- the generic module, label by label ---------------------------------------------


def transfer_column(mod: ThetaModule, side: int, g: int, p: int) -> tuple:
    """Column p of a generator but the unprimed flip, decided for its own
    label through Deodhar's lemma on d1 or d2 and looked up by label: a
    descent spends the generator's parameter q, and a transfer acts on the
    label's slot or by a scalar.  A transfer keeps the kind of generator, so a
    slot descent or a scalar q entry is a swap's, at q = nu."""
    k, d1, d2, x = mod.basis[p]
    par = -1 - mod.mu if (side, g) == (1, mod.lp) else 1
    q, q_minus_one = (_stride(t, mod.dim) for t in _quad_terms(par))
    if side == 0:
        res = deodhar_transfer(d1, g, CosetSpec("sym_block", mod.l, k))
    else:
        res = deodhar_transfer(d2, g, CosetSpec("mixed_block", mod.lp, k))
    if res[0] == "coset":
        np_ = mod.pos[(k, res[1], d2, x) if side == 0 else (k, d1, res[1], x)]
        if res[2] > 0:
            return _column((np_, {0: 1}))
        return _column((np_, q), (p, q_minus_one))
    h = res[1]
    if side == 0:
        if h < mod.l - k:
            return _column((p, q))
        h -= mod.l - k
        y = mul(x, gen_perm(h, k))
        descent = is_right_descent(x, h)
    else:
        if h == mod.lp:
            return _column((p, {0: -1}))
        if h > k:
            return _column((p, q))
        y = mul(gen_perm(h, k), x)
        descent = is_right_descent(inv(x), h)
    yp = mod.pos[(k, d1, d2, y)]
    if not descent:
        return _column((yp, {0: 1}))
    return _column((yp, q), (p, q_minus_one))


def _letter_by_letter(mats: dict, dim: int, side: list, p: int) -> dict:
    """One side of a suite entry on e_p: each word applied to e_p one letter
    at a time over the dict columns mats[key], zeros dropped after every
    letter, and its scalar multiplied in term by term."""
    total: dict = {}
    for scale, word in side:
        vec = {p: 1}
        for key in reversed(word):
            cols = mats[key]
            nxt: dict = {}
            for k, c in vec.items():
                e, q = divmod(k, dim)
                for off, a in cols[q].items():
                    nxt[off + e * dim] = nxt.get(off + e * dim, 0) + c * a
            vec = {k: c for k, c in nxt.items() if c}
        for f, s in scale.items():
            for k, c in vec.items():
                total[k + f * dim] = total.get(k + f * dim, 0) + s * c
        total = {k: c for k, c in total.items() if c}
    return total


def verify_every_column(mod: ThetaModule) -> dict:
    """The relation suite checked on every column in suite order, with no
    appeal to the cross relations and with none of the package's relation
    kernels: {"ok": bool, "relations": [{name, ok, failure?}...]}, each
    failure the first failing column's, formatted by the package."""
    mats = {key: [dict(col) for col in mod.matrix(key)] for key in mod.gen_keys()}
    report = []
    for chk in mod.relation_suite():
        failure = None
        for p in range(mod.dim):
            lhs, rhs = (_letter_by_letter(mats, mod.dim, chk[s], p) for s in ("lhs", "rhs"))
            if lhs != rhs:
                failure = mod._failure(p, lhs, rhs)
                break
        entry = {"name": chk["name"], "ok": failure is None}
        report.append({**entry, "failure": failure} if failure else entry)
    return {"ok": all(r["ok"] for r in report), "relations": report}


def hecke_words_product(params: HeckeParams, a: list[int], b: list[int]) -> HeckeElem:
    """T_a T_b for two words of generator indices: each word's element built
    from the unit by one he_mul per letter, then the two dense elements
    multiplied."""

    def elem(gens):
        out = HeckeElem.unit(params.rank)
        for g in gens:
            out = he_mul(params, out, HeckeElem.basis(gen_perm(g, params.rank)))
        return out

    return he_mul(params, elem(a), elem(b))


def poly_to_json_obj(p: LaurentPoly) -> dict[str, int]:
    """Map exponent numerator -> coefficient, keys sorted numerically."""
    return {str(e): p.terms[e] for e in p.support()}


def poly_from_json_obj(obj) -> LaurentPoly:
    return LaurentPoly({int(e): int(c) for e, c in obj.items()})


def hecke_to_json_obj(h: HeckeElem) -> list[dict]:
    """The product list hecke-mul prints, built as objects for json.dumps."""
    return [{"perm": list(w), "poly": poly_to_json_obj(h.terms[w])} for w in h.support()]


def hecke_from_json_obj(obj) -> HeckeElem:
    return HeckeElem({tuple(item["perm"]): poly_from_json_obj(item["poly"]) for item in obj})


def conservation_scan_report(cfg: TowerConfig, lmax: int) -> dict:
    """The report conservation-scan prints, built as objects for json.dumps,
    each label's row from its own conservation_check, with no search shared
    between labels."""
    rows = [
        {"l": l, "alpha": list(alpha), "beta": list(beta), **conservation_check(alpha, beta, l, cfg)}
        for l in range(lmax + 1)
        for alpha, beta in bipartitions(l)
    ]
    return {
        "case": cfg.case.tag,
        "dimV0": cfg.dimV0,
        "dimVp0": cfg.dimVp0,
        "dimVt0": cfg.dimVt0,
        "mu": format_half(mu_of(cfg)),
        "rows": rows,
        "all_double_c_residuals_zero": all(r["residual_double_c"] == 0 for r in rows),
    }
