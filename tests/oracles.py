"""Independent routes the tests compare the package against: brute-force
scans of the signed permutation group, the transfer across a coset by a
full product, symmetric-group characters and products computed by textbook
formulas, and signed-group characters as induced sums, the nu = 1
character and its decomposition taken one class pair at a time, a word's
nu = 1 product composed column by column, a Hecke word peeled on dicts
with one update per monomial, a product of two Hecke words taken element
by element, the module's labels listed by a nested loop over
each grade's factors, the transfer generators' columns built label by
label, the relation suite checked on every column, letter by letter, a
hecke-mul product as JSON objects, for json.dumps to write and to parse
back, a conservation-scan report built from each label's own check, and
the first-occurrence search that lifts at every rank.
Beside them sit the definitions that only the tests call: the nu = 1
character induced grade by grade and the class-weighted inner product, a
word's product as an element and an element scaled by a polynomial, and
the tower data the criteria check, down to a brute-force character sum
over the 18-element rank-2 unitary group over the field with four elements.
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
    signed_class_types,
    sn_char,
    theta_lift,
    vs_add,
    wl_char,
)
from thetahecke.dualpair import TowerConfig, conservation_check, get_case, mu_of, mu_range_check
from thetahecke.heckealg import HeckeElem, HeckeParams, he_mul, word_terms
from thetahecke.laurent import HalfInt, LaurentPoly, as_half, format_half
from thetahecke.thetamod import ThetaModule, _apply, _column, _quad_terms, _stride
from thetahecke.weylbc import (
    CosetSpec,
    SignedPerm,
    all_unsigned_perms,
    bipartitions,
    conjugacy_classes,
    deodhar_transfer,
    distinguished_reps,
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


def part_union(lam: Partition, mu: Partition) -> Partition:
    return tuple(sorted(lam + mu, reverse=True))


def eps_value(cls: ClassType) -> int:
    """The swap-trivial, flip-negating character on a class."""
    return -1 if len(cls[1]) % 2 else 1


def wl_inner(row_a: list[int], row_b: list[int], m: int) -> Fraction:
    """Class-weighted inner product of two rank-m class functions, given as
    rows in signed_class_types order."""
    total = Fraction(0)
    for cls, a, b in zip(signed_class_types(m), row_a, row_b, strict=True):
        total += Fraction(a * b, signed_centralizer(cls))
    return total


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


def induced_eps_character(l: int, lp: int, k: int) -> dict[tuple[ClassType, ClassType], int]:
    """Character of the product group induced from the three-block subgroup
    (first l-k positions) x (diagonal k-block shared by both factors) x
    (last l'-k positions), with the flip-negating character on every block.
    """
    if not 0 <= k <= min(l, lp):
        raise ValueError(f"grade {k} is outside 0..min({l}, {lp})")
    out: dict[tuple[ClassType, ClassType], Fraction] = {}
    for ta in signed_class_types(l - k):
        za = signed_centralizer(ta)
        ea = eps_value(ta)
        for td in signed_class_types(k):
            zd = signed_centralizer(td)
            ed = eps_value(td)
            left = (part_union(ta[0], td[0]), part_union(ta[1], td[1]))
            for tb in signed_class_types(lp - k):
                zb = signed_centralizer(tb)
                eb = eps_value(tb)
                right = (part_union(td[0], tb[0]), part_union(td[1], tb[1]))
                key = (left, right)
                out[key] = out.get(key, Fraction(0)) + Fraction(ea * ed * eb, za * zd * zb)
    final: dict[tuple[ClassType, ClassType], int] = {}
    for cl in signed_class_types(l):
        for cr in signed_class_types(lp):
            v = out.get((cl, cr), Fraction(0)) * signed_centralizer(cl) * signed_centralizer(cr)
            if v.denominator != 1:
                raise VerificationError(
                    f"induced character of grade {k} on class {(cl, cr)} is {v}, not an integer"
                )
            if v:
                final[(cl, cr)] = int(v)
    return final


def expected_module_character(l: int, lp: int) -> dict[tuple[ClassType, ClassType], int]:
    """Sum of the induced characters over every grade."""
    out: dict[tuple[ClassType, ClassType], int] = {}
    for k in range(min(l, lp) + 1):
        for key, v in induced_eps_character(l, lp, k).items():
            vs_add(out, key, v)
    return out


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
    letter acts first, on the identity by reading its own columns, each
    relative to its position, and the empty word is the identity."""
    cols = None
    for key in reversed(keys):
        m = rep._mats[key]
        if cols is None:
            cols = [{p + r: c for r, c in col} for p, col in enumerate(m)]
        else:
            cols = [{r: c for r, c in _apply(m, col.items(), rep.dim).items() if c} for col in cols]
    return [{p: 1} for p in range(rep.dim)] if cols is None else cols


# -- the generic module, label by label ---------------------------------------------


def nested_labels(l: int, lp: int) -> list[tuple]:
    """Every label (k, d1, d2, x) of the (l, l') module in position order:
    for each grade k, a nested loop over d1, then d2, then the slot x, each
    factor list in its own order and the slots by (length, permutation)."""
    labels = []
    for k in range(min(l, lp) + 1):
        slots = sorted(all_unsigned_perms(k), key=lambda w: (length(w), w))
        for d1 in distinguished_reps(CosetSpec("sym_block", l, k)):
            for d2 in distinguished_reps(CosetSpec("mixed_block", lp, k)):
                for x in slots:
                    labels.append((k, d1, d2, x))
    return labels


def transfer_column(mod: ThetaModule, side: int, g: int, p: int) -> tuple:
    """Column p of a generator but the unprimed flip, decided for its own
    label through Deodhar's lemma on d1 or d2 and looked up by label: a
    descent spends the generator's parameter q, and a transfer acts on the
    label's slot or by a scalar.  A transfer keeps the kind of generator, so a
    slot descent or a scalar q entry is a swap's, at q = nu."""
    k, d1, d2, x = mod.label(p)
    par = -1 - mod.mu if (side, g) == (1, mod.lp) else 1
    q, q_minus_one = (_stride(t, mod.dim) for t in _quad_terms(par))
    if side == 0:
        res = deodhar_transfer(d1, g, CosetSpec("sym_block", mod.l, k))
    else:
        res = deodhar_transfer(d2, g, CosetSpec("mixed_block", mod.lp, k))
    if res[0] == "coset":
        np_ = mod.position(*((k, res[1], d2, x) if side == 0 else (k, d1, res[1], x)))
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
    yp = mod.position(k, d1, d2, y)
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
    mats = {key: [dict(mod.column(key, p)) for p in range(mod.dim)] for key in mod.gen_keys()}
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


def peel_reference(params: HeckeParams, u: SignedPerm, gens) -> dict:
    """T_u T_g1 ... T_gn as term dicts {x: {e: c}}, zeros dropped, with one
    dict update per monomial: the peel heckealg packs into integers.

    T_x T_g is T_xg on an ascent, a relabel; on a descent the quadratic
    relation gives nu^(e/2) T_xg + (nu^(e/2) - 1) T_x, with e = 2 for a swap
    and flip_numer for the flip, both added in one pass over c_x.  A swap
    exchanges entries g - 1 and g, a descent when m(x[g]) > m(x[g - 1]) for
    the mirrored value m(v) = sign(v) (l + 1 - |v|), and the flip negates
    the last entry, a descent when that entry is negative.
    """
    l, cur = params.rank, {u: {0: 1}}
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
    return {x: poly for x, c in cur.items() if (poly := {f: k for f, k in c.items() if k})}


def word_product(params: HeckeParams, gens) -> HeckeElem:
    """T_g1 ... T_gn as an element: the peel's term dicts, zeros dropped."""
    return HeckeElem({x: LaurentPoly(c) for x, c in word_terms(params, gens).items()})


def scale_poly(h: HeckeElem, p: LaurentPoly) -> HeckeElem:
    """p times each coefficient of h."""
    if p.is_zero():
        return HeckeElem()
    return HeckeElem({w: c * p for w, c in h.terms.items()})


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


def tower_search(alpha: Partition, beta: Partition, l: int) -> int:
    """The least rank with a nonzero lift of (alpha, beta) from rank l,
    found by lifting to every rank from 0 up; the search ends by l, where
    the lift contains (beta, alpha)."""
    return next(lp for lp in range(l + 1) if theta_lift(alpha, beta, l, lp))


# -- tower bookkeeping ------------------------------------------------------------


def swapped(cfg: TowerConfig) -> TowerConfig:
    """The same data with the roles of the two companion towers exchanged."""
    return TowerConfig(cfg.case, cfg.dimV0, cfg.dimVt0, cfg.chi_minus_one)


def dimension_grid(case, max_dim: int) -> list[TowerConfig]:
    """All parity-valid configs with both starting dimensions at most max_dim."""
    case = get_case(case)
    out = []
    for v0 in range(max_dim + 1):
        for vp in range(max_dim + 1):
            try:
                out.append(TowerConfig(case, v0, vp, chi_minus_one=1))
            except ValueError:
                continue
    return out


def lambda_exponents(cfg: TowerConfig) -> dict:
    """Formal scalar data for the two flip normalizations.

    The sign symbols are never evaluated; only their two defining relations
    enter: the companion sign is the negative of the chosen one, and their
    product is -chi(-1).  Exponents are half-integers (powers of q).
    """
    d = Fraction(cfg.case.delta, 2)
    e = cfg.dimV0 - Fraction(cfg.dimVp0, 2) + d
    et = cfg.dimV0 - Fraction(cfg.dimVt0, 2) + d
    mu = mu_of(cfg)
    if et - e != mu or e + et != cfg.dimV0 + d:
        raise VerificationError(f"the flip normalizations of {cfg} fail their ratio or product")
    return {
        "lambda": {"sign": "gamma", "q_exponent": e},
        "lambda_tilde": {"sign": "-gamma", "q_exponent": et},
        "ratio": {"sign": -1, "q_exponent": mu},
        "product": {"sign": -cfg.chi_minus_one, "q_exponent": cfg.dimV0 + d},
        "normalized_eigenvalues": (
            {"sign": -1, "q_exponent": Fraction(0)},
            {"sign": 1, "q_exponent": mu},
        ),
    }


def relevance_closure(mu, case, bound: int = 8) -> set[HalfInt]:
    """Orbit of mu under the two reflections x -> -x and x -> -x-2,
    reported within |x| <= bound.

    The walk explores a slightly wider box so that in-window values whose
    connecting path briefly overshoots are still found.
    """
    case = get_case(case)
    mu = as_half(mu)
    if not mu_range_check(case, mu):
        raise ValueError(f"mu={format_half(mu)} out of range for case {case.tag}")
    bound = max(bound, abs(mu))
    seen: set[Fraction] = set()
    frontier = [mu]
    while frontier:
        x = frontier.pop()
        if x in seen or abs(x) > bound + 2:
            continue
        seen.add(x)
        frontier.append(-x)
        frontier.append(-x - 2)
    return {x for x in seen if abs(x) <= bound}


def abundance_witness(mu, case) -> TowerConfig:
    """A smallest-dimension tower pair whose parameter equals mu."""
    case = get_case(case)
    mu = as_half(mu)
    if not mu_range_check(case, mu):
        raise ValueError(f"mu={format_half(mu)} out of range for case {case.tag}")
    # the least v0 with both companion towers starting at dimension >= 0:
    # dimVp0 = v0 + x and dimVt0 = v0 + delta - x
    x = int(mu + Fraction(case.delta, 2))
    v0 = max(0, -x, x - case.delta)
    if case.parity0 is not None:
        v0 += (v0 - case.parity0) % 2
    vp = v0 + x
    cfg = TowerConfig(case, v0, vp, chi_minus_one=1)
    if mu_of(cfg) != mu:
        raise VerificationError(f"{cfg} has mu={format_half(mu_of(cfg))}, not {format_half(mu)}")
    return cfg


# -- the unipotent tower --------------------------------------------------------


def lusztig_unipotent(m: int) -> dict:
    """Dimension data of the m-th special datum in the unitary towers:
    the space carrying it and its first occurrences one tower down and up."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    return {
        "dimV": m * (m + 1) // 2,
        "first_occ_low": (m - 1) * m // 2,
        "first_occ_high": (m + 1) * (m + 2) // 2,
        "mu": Fraction(2 * m + 1, 2),
    }


# -- brute-force oracle over F_4 --------------------------------------------------


def _f4_mul(a: int, b: int) -> int:
    # bits: 1 = constant term, 2 = generator w with w^2 = w + 1
    a0, a1 = a & 1, a >> 1
    b0, b1 = b & 1, b >> 1
    c0 = (a0 & b0) ^ (a1 & b1)
    c1 = (a0 & b1) ^ (a1 & b0) ^ (a1 & b1)
    return c0 | (c1 << 1)


def _f4_conj(a: int) -> int:
    return _f4_mul(a, a)


def _m2_mul(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (
        _f4_mul(a, e) ^ _f4_mul(b, g),
        _f4_mul(a, f) ^ _f4_mul(b, h),
        _f4_mul(c, e) ^ _f4_mul(d, g),
        _f4_mul(c, f) ^ _f4_mul(d, h),
    )


def unitary2_signed_fixed_space_sum() -> int:
    """Sum of (-2)^(dim of the 1-eigenspace) over the rank-2 unitary group
    over the 2-element subfield, enumerated by brute force.

    The group is cut out of the 256 matrices over F_4 by conj(g)^T J g = J
    with J the antidiagonal form, and has exactly 18 elements.
    """
    J = (0, 1, 1, 0)
    total = 0
    count = 0
    for code in range(256):
        g = (code & 3, (code >> 2) & 3, (code >> 4) & 3, code >> 6)
        gbar_t = (_f4_conj(g[0]), _f4_conj(g[2]), _f4_conj(g[1]), _f4_conj(g[3]))
        if _m2_mul(_m2_mul(gbar_t, J), g) != J:
            continue
        count += 1
        a, b, c, d = g[0] ^ 1, g[1], g[2], g[3] ^ 1
        if a == b == c == d == 0:
            fixed = 2
        elif _f4_mul(a, d) ^ _f4_mul(b, c) == 0:
            fixed = 1
        else:
            fixed = 0
        total += (-2) ** fixed
    if count != 18:
        raise VerificationError(f"the rank-2 unitary group has {count} elements, not 18")
    return total
