"""The graded Hecke bimodule deforming a theta-correspondence multiplicity space.

For ranks l, l' and a half-integer parameter mu, the module carries commuting
actions of two Hecke algebras: the rank-l algebra with flip parameter nu**mu
and the rank-l' algebra with flip parameter nu**(-1-mu).  Its basis is graded
by k = 0..min(l, l'); a grade-k label is a triple

    (d1, d2, x)

with d1 a minimal representative for the two-block quotient of the unsigned
rank-l group (blocks l-k / k), d2 a minimal representative for the
symmetric-times-signed quotient of the rank-l' signed group (blocks k / l'-k),
and x an unsigned permutation of the shared k-slot.

Each generator is keyed (side, g): side 0 is the rank-l algebra, side 1 the
rank-l' algebra, and g is the generator index of weylbc (a swap for g below
the rank, the flip for g equal to it).

Both swap actions and the primed flip act grade-by-grade through the transfer
lemma for distinguished representatives: a generator either stays in the
quotient (relabel, possibly spending the quadratic parameter) or transfers
into the parabolic, where it acts on the trivial block by its index value, on
the signed tail by the sign character, or on the shared slot by genuine Hecke
multiplication (right multiplication from the unsigned side, left from the
signed side).

Within grade k the labels are the product of three factor lists, each listed
by length: label (d1, d2, x) sits at position start_k + (i1*n2 + i2)*n3 + i3
for the indices i1, i2, i3 of its factors, which label(p) and position()
compute; no label is stored.  A generator other than the unprimed flip reads
one factor, d1 on side 0 and d2 on side 1, so Deodhar's case is decided once
per factor and the slot action once per (k, h), never once per label; each
column is one of a few templates of (offset, c) entries, shared by reference.

The unprimed flip generator is the one operator that moves between grades.
Its action is seeded on the grade-k base vector by two explicit expansions
(one for the flip at the last position, one for the flip at position l-k).
Each is a sum of labelled basis vectors: a term T_(d1) T'_(d2) T'_x e_k is
the basis vector of label (k, d1, d2, x), because every letter of those
reduced words is an ascent (Deodhar's lemma for the distinguished d1 and d2,
a slot ascent for x), so no seed applies a generator.  The other flip columns
follow in position order from the generators that commute with the flip (the
primed ones and the swaps below l-1): where such a T_g takes e_q to e_r with
r > q, an ascent, the flip's column r is T_g applied to its column q.  Two
kinds of labels have no such predecessor: the base vector e_k, whose column
is the seed at the last position, and the crossing label (k, w^-1, 1, 1), w
the inverted cross-block cycle s_(l-k) ... s_(l-1), whose column is the inner
seed under T_w^-1: k inverse swap steps, each T_g^-1 = nu^-1 T_g +
(nu^-1 - 1) by the quadratic relation.

Every relation of the suite is one form, lhs = rhs with each side a sum of
scalar * word, T^2 = (q - 1) T + q included; at nu = 1 a scalar is its
coefficient sum and each side is its one term with a nonzero scalar.

Everything is exact: coefficients are Laurent polynomials in v = nu**(1/2).
A vector is a dict {e*dim + p: c}, the integer c times v**e at position p
(divmod(key, dim) gives (e, p) for either sign of e), and column p is a
sorted tuple of (f*dim + r - p, a) pairs, keyed relative to p: all plain
ints, one entry per exponent, and one tuple for every position that takes
its template.  The relation suite is checked on these generic columns: on
each basis vector each side of a relation is a raw sum, its words'
rightmost columns read as stored and every other letter applied by the one
kernel _apply, which keeps an entry that cancels as a 0.
Two equal raw sums are equal in Z[v, v**-1].  Only when the raw sums differ
are their zeros dropped and the sides compared again, as canonical
{e*dim + r: c} dicts, which agree exactly when the sides agree, so the
decision stays exact; a failure's residual is their difference at its
lowest row.  Zeros are otherwise dropped only where a vector is stored (the
flip's columns) and in the products at nu = 1.
Any specialization (nu = 1, nu = q) is the image of this generic module under
a ring homomorphism, so the check proves the specialized relations too; nu = 1
sums the exponents out.

The cross relations say that the two actions commute.  They are decided
first, in this order: the transfer pairs, then the flip pairs once the
relations among the primed generators hold (below).  One between two
transfer letters is decided on blocks: within grade k a side-0 letter is
A = sum E(j1,i1) (x) I (x) A(j1,i1), E a matrix unit on the d1 factor and
A(j1,i1) a k!-square block on the slot, and a side-1 letter is B = sum I (x)
E(j2,i2) (x) B(j2,i2), so AB - BA = sum E(j1,i1) (x) E(j2,i2) (x)
[A(j1,i1), B(j2,i2)].  The matrix units are independent, so AB = BA exactly
when every pair of their blocks commutes (right against left multiplication
in H(S_k), plus scalars).  A block that is a scalar multiple of the identity
commutes with any; the distinct others are multiplied pairwise, exactly, as
Laurent matrices.  Each run reads the blocks, and which are scalar, from the
rows of templates the letter's build recorded, and trusts them only while
every stored column is the template its layout assigns and every template
entry stays in its grade, on its label of the factor the letter does not
read.  When that fails, or a block pair does not commute, the relation runs
on every column, so its report is the every-column check's.

A cross relation holds on every column when AB = BA as matrices, on every
basis vector, whichever way it was decided; the seed induction uses no more.
Once the transfer letters of one side commute with every generator of the
other, a relation among the other side's generators commutes with each of
those letters T_b, so if it holds on e_q and e_r = T_b e_q is an exact ascent
(a column that is e_r alone, r > q, the test the flip build uses), it holds
on e_r.  By induction on position it holds on every column once it holds on
the seeds, the positions no such ascent reaches: the labels (k, d1, 1, 1)
for a relation among the unprimed generators, reached from them by the
primed letters, and (k, 1, d2, 1) for one among the primed, reached by the
unprimed swaps alone, all read from the columns each time.  So the primed
relations need only the transfer pairs, and they run next, on their seeds.
When a cross relation fails the argument is void, and every side relation
runs on every column.  By the same induction a side relation's lowest
failing column is a seed, so a report names the first failing column either
way.

Once the primed relations hold, the primed letters make the module an
H'-module, H' the primed algebra, and the flip pairs are decided by
Frobenius reciprocity for its induced modules (Geck and Pfeiffer,
Characters of finite Coxeter groups and Iwahori-Hecke algebras, 2000, ch.
9).  A primed letter reads d2 and x, so take the block V spanned by the
e_(k,d1,d2,x) of one (k, d1): its size is the index [W' : B_(l'-k)] of the
parabolic of the tail J = {k+1, ..., l'}, by the closed form.  Suppose the
letters of J, and no others, act on the block's first vector v0 =
e_(k,d1,1,1) by scalars, a character chi, and every other e_r in V is an
exact primed ascent e_r = T'_c e_q from some e_q in V.  Then H' v0 contains
V and is a quotient of the induced module Ind_J chi, whose dimension is
that index, so V = H' v0 is Ind_J chi.  An H'-map from Ind_J chi is fixed
by the image of v0, which may be any vector on which each T'_j, j in J,
acts by chi_j.  So the flip T commutes with H' on V exactly when every flip
pair holds on v0, which gives T'_j T v0 = T T'_j v0 = chi_j T v0, and, for
one chosen ascent e_r = T'_c e_q per other position, the flip's column r is
T'_c applied to its column q (the map's value at e_r); if T commutes with
H', that column is T T'_c e_q = T'_c T e_q, so a column that differs is a
failing relation.  The blocks, their seeds, the scalar letters and the
ascents are read from the columns before any of these l' checks per block
and one per other position.  If the transfer pairs or the primed relations
fail, a block is not as stated, or a check fails, every flip pair runs on
every column, so its report is the every-column check's.  The relations
among the unprimed generators run last, on their seeds once every cross
relation holds.

At nu = 1 every nu - 1 term vanishes, so every generator but the unprimed
flip is a signed permutation, and GroupRepAtOne applies such a letter by
relabelling rows, never by accumulating sums.
"""

from __future__ import annotations

import math
import time
from bisect import bisect_right
from functools import lru_cache

from . import VerificationError
from .laurent import HalfInt, LaurentPoly, add_product, add_shifted, as_half
from .weylbc import (
    CosetSpec,
    SignedPerm,
    all_unsigned_perms,
    conjugacy_classes,
    deodhar_transfer,
    distinguished_reps,
    flip_at,
    gen_perm,
    identity,
    inv,
    is_right_descent,
    length,
    mul,
    reduced_word,
    swap_range,
)

# -- sparse vectors keyed by e*dim + p: exponent e of nu^(1/2), position p ---

# 1 as an {e: c} term dict, which _stride leaves as it is
_ONE = {0: 1}


def _stride(terms: dict, dim: int) -> dict:
    """The {f: c} dict of a Laurent polynomial as a vector scalar {f*dim: c}:
    nu^(f/2) adds f*dim to a key, so add_product(out, vec, scalar) is out +=
    scalar * vec."""
    return {f * dim: c for f, c in terms.items()}


def _column(*parts: tuple[int, dict]) -> tuple:
    """The sorted (key, c) entries of sum s * e_r over (r, s) parts, each s a
    strided scalar."""
    out: dict = {}
    for r, s in parts:
        add_shifted(out, s, r)
    return tuple(sorted(out.items()))


def _apply(cols, pairs, dim: int, at: int = 0) -> dict:
    """The matrix with the given columns applied to (key, c) pairs relative
    to position at, a stored column and its position or a vector's items()
    and 0: the entry at key e*dim + p meets column p, whose entry f*dim + r -
    p lands at (e+f)*dim + r.  The sum is raw: an entry that cancels stays."""
    out: dict = {}
    for key, c in pairs:
        key += at
        for off, a in cols[key % dim]:
            k = key + off
            if k in out:
                out[k] += c * a
            else:
                out[k] = c * a
    return out


def _commute(a: tuple, b: tuple, n: int) -> bool:
    """Whether two n-square blocks, stored as columns are, commute: column x
    of ab is a applied to column x of b, and of ba b applied to a's; raw sums
    that agree are equal, others are compared canonical."""
    for x in range(n):
        ab, ba = _apply(a, b[x], n, x), _apply(b, a[x], n, x)
        if ab != ba and _nonzero(ab) != _nonzero(ba):
            return False
    return True


def _apply_word(mats, pairs, dim: int, at: int = 0) -> dict:
    """Apply a sequence of matrices to (key, c) pairs relative to position at,
    the rightmost first, as a raw sum; the empty sequence gives the pairs."""
    vec = None
    for cols in reversed(mats):
        vec = _apply(cols, pairs, dim, at)
        pairs, at = vec.items(), 0
    return {key + at: c for key, c in pairs} if vec is None else vec


def _nonzero(vec: dict) -> dict:
    """A raw sum with its zero entries dropped: the canonical form, in which
    two vectors are equal exactly when their entries are."""
    return {k: c for k, c in vec.items() if c}


def _at_one(cols, dim: int) -> list[tuple]:
    """Columns at nu = 1, column p a sorted tuple of (r - p, c): the exponents
    of an entry's row r summed out, zeros dropped."""
    out = []
    for p, col in enumerate(cols):
        acc: dict = {}
        for off, a in col:
            r = (off + p) % dim - p
            acc[r] = acc.get(r, 0) + a
        out.append(tuple(sorted((r, c) for r, c in acc.items() if c)))
    return out


@lru_cache(maxsize=None)
def _quad_terms(par: HalfInt) -> tuple[dict, dict]:
    """The term dicts of nu^par and nu^par - 1, the coefficients of a
    generator's quadratic relation T^2 = (nu^par - 1) T + nu^par."""
    q = LaurentPoly.nu_power(par)
    return q.terms, (q - LaurentPoly.one()).terms


@lru_cache(maxsize=None)
def _word(side: int, w: SignedPerm) -> tuple[tuple[int, int], ...]:
    """The generator keys of a reduced word for w, acting on the given side."""
    return tuple((side, g) for g in reduced_word(w))


@lru_cache(maxsize=None)
def _slots(k: int) -> tuple[SignedPerm, ...]:
    """The unsigned permutations of the shared k-slot, listed by length."""
    return tuple(sorted(all_unsigned_perms(k), key=lambda w: (length(w), w)))


@lru_cache(maxsize=None)
def _slot_action(side: int, k: int, h: int) -> tuple[tuple[int, bool], ...]:
    """For each slot x in _slots(k) order, (the index of y, whether it is a
    descent): y = x s_h from the right on side 0, y = s_h x from the left on
    side 1."""
    slots = _slots(k)
    index = {x: i for i, x in enumerate(slots)}
    s = gen_perm(h, k)
    if side == 0:
        return tuple((index[mul(x, s)], is_right_descent(x, h)) for x in slots)
    return tuple((index[mul(s, x)], is_right_descent(inv(x), h)) for x in slots)


def grade_dim_formula(l: int, lp: int, k: int) -> int:
    """2^k l! l'! / ((l-k)! k! (l'-k)!), the closed-form grade dimension."""
    return (
        2**k
        * math.factorial(l)
        * math.factorial(lp)
        // (math.factorial(l - k) * math.factorial(k) * math.factorial(lp - k))
    )


def module_dim_formula(l: int, lp: int) -> int:
    """The total dimension: the grade dimensions summed over k = 0..min(l, l')."""
    return sum(grade_dim_formula(l, lp, k) for k in range(min(l, lp) + 1))


def verify_work_formula(l: int, lp: int) -> int:
    """The relation column checks of verify_relations in the worst case in
    which the cross relations hold: the l l' cross relations on every column,
    as a transfer or a flip pair runs when it falls back (a flip pair falls
    back with no column checked when the relations hold), the l(l+1)/2
    unprimed relations on the sum_k C(l, k) seeds (k, d1, 1, 1) and the
    l'(l'+1)/2 primed ones on the sum_k C(l', k) 2^k seeds (k, 1, d2, 1),
    k <= min(l, l')."""
    grades = range(min(l, lp) + 1)
    seeds0 = sum(math.comb(l, k) for k in grades)
    seeds1 = sum(math.comb(lp, k) << k for k in grades)
    side_checks = l * (l + 1) // 2 * seeds0 + lp * (lp + 1) // 2 * seeds1
    return l * lp * module_dim_formula(l, lp) + side_checks


class ThetaModule:
    """The graded bimodule for ranks (l, l') at parameter mu."""

    def __init__(self, l: int, lp: int, mu):
        if l < 0 or lp < 0:
            raise ValueError(f"ranks must be non-negative, got l={l}, l'={lp}")
        self.l = l
        self.lp = lp
        self.mu: HalfInt = as_half(mu)
        self.kmax = min(l, lp)

        # each grade's (d1, d2, x) factor lists, whose product is its labels,
        # their {factor: index} dicts, and the position of its first label
        self._factors, self._factor_index, self._starts, self.dim = [], [], [], 0
        for k in range(self.kmax + 1):
            d1s = distinguished_reps(CosetSpec("sym_block", l, k))
            lists = (d1s, distinguished_reps(CosetSpec("mixed_block", lp, k)), _slots(k))
            self._factors.append(lists)
            self._factor_index.append(tuple({f: i for i, f in enumerate(fs)} for fs in lists))
            self._starts.append(self.dim)
            self.dim += math.prod(map(len, lists))
            if self.dim - self._starts[k] != grade_dim_formula(l, lp, k):
                raise VerificationError(
                    f"grade {k} of ({l},{lp}) has {self.dim - self._starts[k]} labels, "
                    f"the closed form gives {grade_dim_formula(l, lp, k)}"
                )
        self._cols: dict[tuple, list[tuple]] = {}
        # each transfer letter's per-grade rows of templates, as its build laid them out
        self._rows: dict[tuple, list[list[tuple]]] = {}

    # -- bookkeeping: a label is index arithmetic on its grade's factor lists --

    def grade_dims(self) -> list[int]:
        return [b - a for a, b in zip(self._starts, self._starts[1:] + [self.dim])]

    def unit_pos(self, k: int) -> int:
        """The position of e_k, first in grade k: each factor list opens with the identity."""
        if not 0 <= k <= self.kmax:
            raise ValueError(f"grade {k} is outside 0..{self.kmax}")
        return self._starts[k]

    def label(self, p: int) -> tuple[int, SignedPerm, SignedPerm, SignedPerm]:
        """The label (k, d1, d2, x) at position p."""
        if not 0 <= p < self.dim:
            raise ValueError(f"position {p} is outside range({self.dim})")
        k = bisect_right(self._starts, p) - 1
        d1s, d2s, slots = self._factors[k]
        i12, i3 = divmod(p - self._starts[k], len(slots))
        return k, d1s[i12 // len(d2s)], d2s[i12 % len(d2s)], slots[i3]

    def position(self, k: int, d1: SignedPerm, d2: SignedPerm, x: SignedPerm) -> int:
        """The position of e_(k,d1,d2,x) = T_(d1) T'_(d2) T'_x e_k, a word of ascents."""
        if 0 <= k <= self.kmax:
            i1, i2, i3 = (index.get(f) for index, f in zip(self._factor_index[k], (d1, d2, x)))
            if None not in (i1, i2, i3):
                _, d2s, slots = self._factors[k]
                return self._starts[k] + (i1 * len(d2s) + i2) * len(slots) + i3
        raise VerificationError(f"{(k, d1, d2, x)} is not a label of ({self.l},{self.lp})")

    def _index_obj(self, p: int) -> dict:
        k, d1, d2, x = self.label(p)
        return {"k": k, "d1": list(d1), "d2": list(d2), "x": list(x)}

    def gen_keys(self) -> list[tuple[int, int]]:
        return [(0, g) for g in range(1, self.l + 1)] + [(1, g) for g in range(1, self.lp + 1)]

    # -- generator columns --

    def matrix(self, key: tuple) -> list[tuple]:
        """Every column of a generator, built on first use (the flip's columns
        apply the other generators, never the flip)."""
        cols = self._cols.get(key)
        if cols is None:
            cols = self._flip_columns() if key == (0, self.l) else self._transfer_columns(*key)
            self._cols[key] = cols
        return cols

    def column(self, key: tuple, p: int) -> tuple:
        """Column p of a generator keyed absolutely, as sorted (f*dim + r, a)."""
        return tuple([(off + p, a) for off, a in self.matrix(key)[p]])

    def apply_gen(self, key: tuple, vec: dict) -> dict:
        """A generator applied to a vector, as a raw sum."""
        return _apply(self.matrix(key), vec.items(), self.dim)

    # -- the grade-preserving generator actions --

    def _transfer_columns(self, side: int, g: int) -> list[tuple]:
        """Every column of a generator but the unprimed flip, built grade by
        grade from the tensor layout of the labels.

        The generator reads one factor of a label: d1 on side 0, d2 on side 1.
        Deodhar's lemma is decided once per factor; a transfer into the
        parabolic lands on generator h, which acts by a scalar (the index
        value q on the trivial block, -1 on the signed tail) or on the slot
        x, tabulated once per (k, h).  Each case is a column template of
        (offset from p, c) entries, shared by every position p with that
        factor; a descent spends the generator's parameter q, T e_p =
        q e_p' + (q - 1) e_p.  A transfer keeps the kind of generator, so a
        slot descent or a scalar q entry is a swap's, at q = nu.
        """
        l, lp, dim = self.l, self.lp, self.dim
        par = -1 - self.mu if (side, g) == (1, lp) else 1
        q, q_minus_one = (_stride(t, dim) for t in _quad_terms(par))
        scalar, sign = tuple(sorted(q.items())), ((0, -1),)
        self._rows[side, g] = grade_rows = []

        @lru_cache(maxsize=None)  # one tuple per template, whichever factor asks
        def moved(delta: int, descent: bool) -> tuple:
            """T e_p = e_(p+delta), or q e_(p+delta) + (q - 1) e_p at a descent."""
            if not descent:
                return ((delta, 1),)
            return tuple(sorted([(f + delta, c) for f, c in q.items()] + list(q_minus_one.items())))

        cols: list[tuple] = []
        for k, (d1s, d2s, slots) in enumerate(self._factors):
            n2, n3 = len(d2s), len(slots)
            # the factor read, the position step between two of its labels, and
            # the parabolic generators below the slot's first, s_(before+1)
            if side == 0:
                spec, ds, stride, before = CosetSpec("sym_block", l, k), d1s, n2 * n3, l - k
            else:
                spec, ds, stride, before = CosetSpec("mixed_block", lp, k), d2s, n3, 0
            index = self._factor_index[k][side]
            rows = []  # the templates of one factor, one per slot index
            grade_rows.append(rows)
            for i, d in enumerate(ds):
                res = deodhar_transfer(d, g, spec)
                if res[0] == "coset":
                    j = index.get(res[1])
                    if j is None:
                        raise VerificationError(
                            f"{res[1]} is not a {spec.kind} factor of grade {k} of ({l},{lp})"
                        )
                    rows.append((moved((j - i) * stride, res[2] < 0),) * n3)
                    continue
                h = res[1] - before
                if side == 1 and h == lp:
                    rows.append((sign,) * n3)
                elif not 1 <= h < k:
                    rows.append((scalar,) * n3)
                else:
                    action = _slot_action(side, k, h)
                    rows.append(tuple(moved(y - i3, descent) for i3, (y, descent) in enumerate(action)))
            # position start + (i1*n2 + i2)*n3 + i3 takes template i3 of its factor's row
            order = [row for row in rows for _ in range(n2)] if side == 0 else rows * len(d1s)
            for row in order:
                cols.extend(row)
        return cols

    # -- seeded flip action --

    def seed_flip_top(self, k: int) -> dict:
        """The flip generator applied to the grade-k base vector."""
        if k == 0:
            return self.seed_flip_inner(0)  # the inner flip at position l-0 is the flip itself
        l, lp, mu, dim = self.l, self.lp, self.mu, self.dim
        nu = LaurentPoly.nu_power
        unit, slot = identity(l), identity(k)
        top = _stride(nu(k - lp + mu, -1).terms, dim)
        parts = [(self.position(k, unit, flip_at(k, lp), slot), top)]
        # bracket, entering with weight nu^(k-l'+1) - nu^(k-l')
        bracket = nu(k - lp + 1) + nu(k - lp, -1)
        c = _stride((bracket * nu(mu)).terms, dim)
        for i in range(k + 1, lp + 1):
            parts.append((self.position(k, unit, mul(flip_at(i, lp), swap_range(k, i, lp)), slot), c))
        c_low = _stride((bracket * nu(-1, -1)).terms, dim)
        low = self.position(k - 1, swap_range(l - k + 1, l, l), identity(lp), identity(k - 1))
        parts.append((low, c_low))
        for i in range(k, lp + 1):
            parts.append((self.position(k, unit, swap_range(k, i, lp), slot), c_low))
        return dict(_column(*parts))

    def seed_flip_inner(self, k: int) -> dict:
        """The flip at position l-k applied to the grade-k base vector.

        Defined for 0 <= k <= l-1; grade-(k+1) labels only arise when
        k < l', which keeps them inside the grading.
        """
        if not 0 <= k < self.l:
            raise ValueError(f"the inner flip seed needs 0 <= k < l = {self.l}, got k = {k}")
        l, lp, mu, dim = self.l, self.lp, self.mu, self.dim
        nu = LaurentPoly.nu_power
        unit = identity(l)
        parts = [(self.unit_pos(k), _stride(nu(2 * k - lp, -1).terms, dim))]
        scale = nu(k - lp, -1)
        if k < lp:
            slot_up = swap_range(1, k + 1, k + 1)
            plain = _stride(scale.terms, dim)
            flipped_scale = _stride((scale * nu(mu + 1, -1)).terms, dim)
            for i in range(k + 1, lp + 1):
                cycle = swap_range(k + 1, i, lp)
                parts.append((self.position(k + 1, unit, cycle, slot_up), plain))
                flipped = mul(flip_at(i, lp), cycle)
                parts.append((self.position(k + 1, unit, flipped, slot_up), flipped_scale))
        for i in range(1, k + 1):
            p = self.position(k, swap_range(l - k, l - k + i, l), identity(lp), swap_range(1, i, k))
            parts.append((p, _stride((scale * (nu(k - i + 1) + nu(k - i, -1))).terms, dim)))
        return dict(_column(*parts))

    def _ascents(self, keys, lo: int = 0, hi: int | None = None):
        """Yield (r, columns, q) for every exact ascent e_r = T_g e_q of the
        given generators with lo <= q < r < hi, hi the dimension by default,
        read from their columns: column q is e_r alone, with coefficient 1,
        exponent 0 and r > q (each factor of the basis is listed by length).
        r < q is a descent that relabels, as the primed flip's does at mu =
        -1, and no ascent."""
        hi = self.dim if hi is None else hi
        for key in keys:
            gen = self.matrix(key)
            for q in range(lo, hi):
                col = gen[q]
                if len(col) == 1 and col[0][1] == 1 and 0 < col[0][0] < hi - q:
                    yield q + col[0][0], gen, q

    def seed_columns(self, side: int) -> list[int]:
        """The positions that no exact ascent of the other side's transfer
        letters reaches, in order: once those letters commute with this
        side's, a relation among this side's generators that holds on these
        holds on every column.  The unprimed flip is never read, so the
        primed relations' seeds need only the transfer pairs."""
        keys = [key for key in self.gen_keys() if key[0] != side and key != (0, self.l)]
        reached = {r for r, _, _ in self._ascents(keys)}
        return [p for p in range(self.dim) if p not in reached]

    def _flip_blocks(self) -> list[tuple[int, list]] | None:
        """For each (k, d1) block, its first position, the seed, and for
        every position r of the block, one exact primed ascent e_r = T'_c e_q
        within it as (columns of T'_c, q), None at the seed; read from the
        primed columns on each call.  None when the module docstring's block
        argument does not apply: the block's size is not [W' : B_(l'-k)], a
        position other than its first has no such ascent, or the primed
        letters that act on the seed by a scalar are not the tail k+1..l'."""
        lp, dim = self.lp, self.dim
        keys = [(1, b) for b in range(1, lp + 1)]
        blocks = []
        for k, ((d1s, d2s, slots), start) in enumerate(zip(self._factors, self._starts)):
            span = len(d2s) * len(slots)
            if span != math.perm(lp, k) << k:
                return None
            tail = list(range(k + 1, lp + 1))
            for lo in range(start, start + len(d1s) * span, span):
                via: list = [None] * span
                for r, gen, q in self._ascents(keys, lo, lo + span):
                    if via[r - lo] is None:
                        via[r - lo] = (gen, q)
                if None in via[1:]:
                    return None
                if [b for _, b in keys if all(off % dim == 0 for off, _ in self.matrix((1, b))[lo])] != tail:
                    return None
                blocks.append((lo, via))
        return blocks

    def _flip_follows_ascents(self, blocks: list[tuple[int, list]]) -> bool:
        """Whether flip column r is T'_c applied to flip column q at every
        chosen ascent e_r = T'_c e_q of _flip_blocks, one column check each;
        raw sums that agree are equal, others are compared canonical."""
        dim, flip = self.dim, self.matrix((0, self.l))
        for lo, via in blocks:
            for r in range(lo + 1, lo + len(via)):
                gen, q = via[r - lo]
                got = _apply(gen, flip[q], dim, q)
                want = {off + r: c for off, c in flip[r]}
                if got != want and _nonzero(got) != _nonzero(want):
                    return False
        return True

    def _flip_columns(self) -> list[tuple]:
        """The flip's columns in position order, each a seed or one commuting
        generator applied to an earlier flip column."""
        if self.l < 1:
            raise ValueError("the rank-0 algebra has no flip generator")
        l, lp, dim = self.l, self.lp, self.dim
        seeds = {self.unit_pos(k): self.seed_flip_top(k) for k in range(self.kmax + 1)}
        nu_inv, nu_inv_minus_one = (_stride(t, dim) for t in _quad_terms(-1))
        for k in range(1, min(l - 1, lp) + 1):
            # T_w^-1 = T_(l-1)^-1 ... T_(l-k)^-1 on the inner seed, w = s_(l-k) ... s_(l-1)
            vec = self.seed_flip_inner(k)
            for g in range(l - k, l):
                out: dict = {}
                add_product(out, self.apply_gen((0, g), vec), nu_inv)  # zeros drop here
                add_product(out, vec, nu_inv_minus_one)
                vec = out
            seeds[self.position(k, swap_range(l - k, l, l), identity(lp), identity(k))] = vec
        # for g commuting with the flip, an ascent e_r = T_g e_q makes flip
        # column r T_g on flip column q
        keys = [(0, g) for g in range(1, l - 1)] + [(1, g) for g in range(1, lp + 1)]
        ascents = {r: (gen, q) for r, gen, q in self._ascents(keys)}
        cols: list[tuple] = []
        for r in range(dim):
            vec = seeds.get(r)
            if vec is None:
                if r not in ascents:
                    raise VerificationError(f"no flip seed and no ascent reaches label {self.label(r)}")
                gen, q = ascents[r]
                vec = _apply(gen, cols[q], dim, q)
            cols.append(tuple(sorted((k - r, c) for k, c in vec.items() if c)))
        return cols

    # -- relation suite --

    def relation_suite(self) -> list[dict]:
        """Every defining relation of the bimodule presentation, as data.

        An entry is {name, side, lhs, rhs}: side is the one side of its
        generators, or None for a cross relation, and lhs and rhs are each a
        list of (scalar terms, word), the {e: c} dict of a Laurent polynomial
        and a tuple of generator keys, the rightmost acting first.  A quadratic
        entry is [(1, (g, g))] = [(q - 1, (g,)), (q, ())], any other [(1, W1)]
        = [(1, W2)]; at nu = 1 each side has one term whose coefficients do not
        sum to 0, and they sum to 1.  Each section is written once and built
        for both sides from (name prefix, side, rank, flip exponent).
        """
        checks: list[dict] = []

        def entry(name, side, lhs, rhs):
            checks.append({"name": name, "side": side, "lhs": lhs, "rhs": rhs})

        def equal(name, side, lhs, rhs):
            entry(name, side, [(_ONE, tuple(lhs))], [(_ONE, tuple(rhs))])

        sides = (("", 0, self.l, self.mu), ("prime_", 1, self.lp, -1 - self.mu))
        # (name, key, quadratic exponent) of every generator, per side
        gens = [
            [(f"{pre}swap_{i}", (s, i), 1) for i in range(1, n)]
            + ([(f"{pre}flip", (s, n), par)] if n else [])
            for pre, s, n, par in sides
        ]

        for side_gens in gens:
            for name, g, par in side_gens:
                q, q_minus_one = _quad_terms(as_half(par))  # T^2 = (q - 1) T + q
                entry(f"quad_{name}", g[0], [(_ONE, (g, g))], [(q_minus_one, (g,)), (q, ())])
        for pre, s, n, _ in sides:
            for i in range(1, n):
                a = (s, i)
                for j in range(i + 2, n):
                    equal(f"comm_{pre}swap_{i}_{j}", s, [a, (s, j)], [(s, j), a])
                if i + 1 < n:
                    b = (s, i + 1)
                    equal(f"braid_{pre}swap_{i}", s, [a, b, a], [b, a, b])
        for pre, s, n, _ in sides:
            t = (s, n)
            if n >= 2:
                a = (s, n - 1)
                equal(f"braid_{pre}flip", s, [t, a, t, a], [a, t, a, t])
            for i in range(1, n - 1):
                equal(f"comm_{pre}flip_swap_{i}", s, [t, (s, i)], [(s, i), t])
        for an, a, _ in gens[0]:
            for bn, b, _ in gens[1]:
                equal(f"cross_{an}_{bn}", None, [a, b], [b, a])
        return checks

    def _plan(self, chk: dict) -> tuple[list, list]:
        """One suite entry as relation_sides reads it: for each side, each
        term's strided scalar, None for 1, the columns of its word but the
        rightmost letter, and that letter's columns, None for the empty word."""
        return tuple(
            [
                (
                    None if t == _ONE else _stride(t, self.dim),
                    tuple(self.matrix(k) for k in word[:-1]),
                    self.matrix(word[-1]) if word else None,
                )
                for t, word in side
            ]
            for side in (chk["lhs"], chk["rhs"])
        )

    def relation_sides(self, plan: tuple, p: int) -> tuple[dict, dict]:
        """Evaluate one planned suite entry on the basis vector e_p, returning
        the raw sums (lhs, rhs).  A word's rightmost matrix acts on e_p by its
        stored column p, read as it is, not applied; the empty word is e_p."""
        dim = self.dim
        out = []
        for side in plan:
            vec: dict = {}
            for scale, head, last in side:
                w = {p: 1} if last is None else _apply_word(head, last[p], dim, p)
                if scale is None and not vec:
                    vec = w  # w added to nothing, without a dict pass
                else:
                    add_product(vec, w, _ONE if scale is None else scale)
            out.append(vec)
        return out[0], out[1]

    def _slot_blocks(self, key: tuple, canon: dict) -> list[list[tuple]] | None:
        """The distinct slot blocks of a transfer letter that are no scalar
        multiple of the identity, one list per grade, read from the rows of
        templates its build recorded; a block is k!-square, stored as columns
        are, and equal blocks are the one object canon holds.  None when a
        stored column is not the template its layout assigns, or a template
        has an entry outside its grade or on another label of the factor the
        letter does not read: the letter is then no tensor of blocks."""
        side, cols, dim = key[0], self.matrix(key), self.dim
        out = []
        for (d1s, d2s, slots), start, rows in zip(self._factors, self._starts, self._rows[key]):
            n1, n2, n3 = len(d1s), len(d2s), len(slots)
            span = n2 * n3  # the positions of one d1
            # side 0 takes row i1 at every d2 of d1 i1, side 1 every row once per d1
            if side == 0:
                layout = (list(row) * n2 for row in rows)
            else:
                layout = [[t for row in rows for t in row]] * n1
            if any(cols[start + i * span:start + (i + 1) * span] != seg for i, seg in enumerate(layout)):
                return None
            step, found = span if side == 0 else n3, {}

            def read(template, p: int, x: int):
                """(target factor index, e*n3 + y - x, c) for each entry of the
                template at position p, slot x; None if one leaves the tensor form."""
                entries = []
                for off, c in template:
                    e, r = divmod(off + p, dim)
                    j1, rest = divmod(r - start, span)
                    j2, y = divmod(rest, n3)
                    j, other = (j1, j2) if side == 0 else (j2, j1)
                    if other or not 0 <= j1 < n1:
                        return None
                    entries.append((j, e * n3 + y - x, c))
                return entries

            for i, row in enumerate(rows):
                base = start + i * step  # factor i's label whose other factor is the first
                head = read(row[0], base, 0)
                if head is None:
                    return None
                # one template at every slot, each entry on slot x: scalar blocks only
                if row.count(row[0]) == n3 and not any(k % n3 for _, k, _ in head):
                    continue
                blocks: dict = {}  # the target factor index: the block's columns
                for x, template in enumerate(row):
                    entries = head if x == 0 else read(template, base + x, x)
                    if entries is None:
                        return None
                    for j, k, c in entries:
                        if j not in blocks:
                            blocks[j] = [[] for _ in range(n3)]
                        blocks[j][x].append((k, c))
                for block in blocks.values():
                    block = tuple(tuple(sorted(col)) for col in block)
                    if block.count(block[0]) < n3 or any(k % n3 for k, _ in block[0]):
                        block = canon.setdefault(block, block)
                        found[id(block)] = block
            out.append(list(found.values()))
        return out

    def _failure(self, p: int, lhs: dict, rhs: dict) -> dict:
        """The column, lowest offending entry and residual of a relation whose
        sides on e_p are lhs != rhs: the residual is lhs - rhs at that entry."""
        dim = self.dim
        diff = dict(lhs)
        add_shifted(diff, rhs, 0, -1)
        bad = min(k % dim for k in diff)
        residual = LaurentPoly({k // dim: c for k, c in diff.items() if k % dim == bad})
        return {"column": self._index_obj(p), "entry": self._index_obj(bad), "residual": str(residual)}

    def verify_relations(self) -> dict:
        """Run every defining relation column by column, each side compared
        exactly on the generic columns as the module docstring states.

        The relations run in four steps.  (1) A cross relation between two
        transfer letters is decided on their slot blocks when both letters
        are laid out as their build recorded and every pair of their blocks
        commutes, and runs on every column otherwise.  (2) If those all
        hold, the primed relations run on their seed_columns.  (3) If those
        hold too, the flip pairs are decided together on the block seeds
        and one primed ascent per column; otherwise, or when a block or a
        check fails, they run on every column.  (4) If every cross relation
        holds, the unprimed relations run on their seed_columns, and
        otherwise every side relation runs on every column.  The module
        docstring gives the arguments that make each report the
        every-column check's.

        Returns {"ok": bool, "dimension": ..., "grades": ..., "relations":
        [{name, ok, failure?, elapsed}...] in relation_suite order, "seeds":
        the seed counts of the side-0 and the side-1 relations, or None when
        they ran on every column, "cross": the transfer pairs decided on
        blocks, the block products that took, the transfer pairs run on
        every column, the flip pairs decided on seeds and ascents, the
        column checks that took, and the flip pairs run on every column}; a
        failure records the first offending basis column, entry, and
        residual.
        """
        dim, flip = self.dim, (0, self.l)
        suite = self.relation_suite()

        def run(chk, columns, t0: float) -> dict:
            plan = self._plan(chk)
            failure = None
            for p in columns:
                lhs, rhs = self.relation_sides(plan, p)
                # raw sums that agree are equal; others are compared canonical
                if lhs != rhs:
                    lhs, rhs = _nonzero(lhs), _nonzero(rhs)
                    if lhs != rhs:
                        failure = self._failure(p, lhs, rhs)
                        break
            return {
                "name": chk["name"],
                "ok": failure is None,
                **({"failure": failure} if failure else {}),
                "elapsed": time.perf_counter() - t0,
            }

        # within this run: each letter's blocks, each block pair's verdict
        canon, blocks, commute = {}, {}, {}
        cross = {
            "transfer_on_blocks": 0,
            "block_products": 0,
            "transfer_on_columns": 0,
            "flip_on_ascents": 0,
            "ascent_checks": 0,
            "flip_on_columns": 0,
        }

        def on_blocks(a: tuple, b: tuple) -> bool:
            for key in (a, b):
                if key not in blocks:
                    blocks[key] = self._slot_blocks(key, canon)
            if blocks[a] is None or blocks[b] is None:
                return False
            for (_, _, slots), a_blocks, b_blocks in zip(self._factors, blocks[a], blocks[b]):
                for s in a_blocks:
                    for t in b_blocks:
                        pair = (id(s), id(t))
                        if pair not in commute:
                            commute[pair] = _commute(s, t, len(slots))
                            cross["block_products"] += 2
                        if not commute[pair]:
                            return False
            return True

        def on_ascents() -> bool:
            """Every flip pair decided on the block seeds and one primed ascent
            per column, its report in done; False, done untouched, when a
            precondition or a check fails.  The classification and the ascent
            checks decide the pairs together, so each pair's elapsed time is
            its seed checks and an equal share of theirs."""
            t0 = time.perf_counter()
            flip_blocks = self._flip_blocks()
            if flip_blocks is None:
                return False
            seeds = [lo for lo, _ in flip_blocks]
            reports = {i: run(suite[i], seeds, time.perf_counter()) for i in flips}
            if not (all(rel["ok"] for rel in reports.values()) and self._flip_follows_ascents(flip_blocks)):
                return False
            share = (time.perf_counter() - t0 - sum(rel["elapsed"] for rel in reports.values())) / len(flips)
            for i, rel in reports.items():
                done[i] = {**rel, "elapsed": rel["elapsed"] + share}
            cross["flip_on_ascents"] = len(flips)
            cross["ascent_checks"] = len(flips) * len(seeds) + dim - len(seeds)
            return True

        done = {}
        crosses = [i for i, chk in enumerate(suite) if chk["side"] is None]
        flips = [i for i in crosses if flip in suite[i]["lhs"][0][1]]
        # 1. the transfer pairs
        for i in crosses:
            if i not in flips:
                t0 = time.perf_counter()
                if on_blocks(*suite[i]["lhs"][0][1]):
                    kind, columns = "transfer_on_blocks", ()
                else:
                    kind, columns = "transfer_on_columns", range(dim)
                cross[kind] += 1
                done[i] = run(suite[i], columns, t0)
        # 2. the primed relations on their seeds, which need only the transfer pairs
        primed_seeds = None
        if all(rel["ok"] for rel in done.values()):
            primed_seeds = self.seed_columns(1)
            for i, chk in enumerate(suite):
                if chk["side"] == 1:
                    done[i] = run(chk, primed_seeds, time.perf_counter())
        # 3. the flip pairs, on seeds and ascents once the primed relations hold
        ready = primed_seeds is not None and all(rel["ok"] for rel in done.values())
        if not (flips and ready and on_ascents()):
            for i in flips:
                cross["flip_on_columns"] += 1
                done[i] = run(suite[i], range(dim), time.perf_counter())
        # 4. the unprimed relations on their seeds, or every side relation on
        # every column once a cross relation fails
        seeds = None
        if all(done[i]["ok"] for i in crosses):
            seeds = [self.seed_columns(0), primed_seeds]
        for i, chk in enumerate(suite):
            if chk["side"] == 0 or (chk["side"] == 1 and seeds is None):
                done[i] = run(chk, range(dim) if seeds is None else seeds[0], time.perf_counter())
        report = [done[i] for i in range(len(suite))]
        return {
            "ok": all(r["ok"] for r in report),
            "dimension": self.dim,
            "grades": self.grade_dims(),
            "relations": report,
            "seeds": None if seeds is None else [len(s) for s in seeds],
            "cross": cross,
        }

    # -- specialization at nu = 1 --

    def matrices_at_one(self) -> dict:
        """Every generator at nu = 1: column p a sorted tuple of (r - p, c) with
        the exponents summed out."""
        return {key: _at_one(self.matrix(key), self.dim) for key in self.gen_keys()}


# -- nu = 1 representation of the product of signed groups -------------------


class GroupRepAtOne:
    """The pair of commuting signed-group representations cut out at nu = 1.

    A product is held as a signed permutation (perm, signs), column p being
    signs[p] e_perm[p], or as sparse columns {row: c}.  A generator each of
    whose columns is one entry +-1 on distinct rows is a signed-permutation
    letter and relabels; any other letter is applied column by column.
    """

    def __init__(self, mod: ThetaModule):
        self.l, self.lp = mod.l, mod.lp
        self.dim = mod.dim
        self._suite = mod.relation_suite()
        self._mats = mod.matrices_at_one()
        self._one = (list(range(self.dim)), [1] * self.dim)

    def _letters(self) -> dict:
        """Every generator as a letter, (perm, signs) where its nu = 1 columns
        are a signed permutation and those columns otherwise.  Read from the
        columns on each call, so a changed column is never missed."""
        letters = {}
        for key, m in self._mats.items():
            perm = [p + col[0][0] for p, col in enumerate(m) if len(col) == 1 and col[0][1] in (1, -1)]
            if len(perm) == self.dim and len(set(perm)) == self.dim:
                letters[key] = (perm, [col[0][1] for col in m])
            else:
                letters[key] = m
        return letters

    def _compose(self, letters: dict, keys):
        """The product of a word, the rightmost letter acting first."""
        prod = self._one
        for key in reversed(keys):
            prod = _step(letters[key], prod, self.dim)
        return prod

    def _product(self, keys) -> list:
        """The sparse columns of a word's product; the empty word is the identity."""
        return _columns(self._compose(self._letters(), keys))

    def check_group_relations(self) -> None:
        """Every entry of the module's relation suite, evaluated at nu = 1.

        At nu = 1 a term's scalar is its coefficient sum, so each side is its
        one term with a nonzero scalar, whose scalar is 1: a quadratic
        relation says M M is the identity.  Raises VerificationError naming
        the first relation that fails.
        """
        letters = self._letters()
        for chk in self._suite:
            lhs, rhs = (
                self._compose(letters, next(word for t, word in side if sum(t.values())))
                for side in (chk["lhs"], chk["rhs"])
            )
            # two signed permutations compare as lists; any other pair as columns
            if lhs != rhs and _columns(lhs) != _columns(rhs):
                raise VerificationError(f"group relation {chk['name']} fails at nu = 1")

    def rep_left(self, w: SignedPerm) -> list:
        return self._product(_word(0, w))

    def rep_right(self, w: SignedPerm) -> list:
        return self._product(_word(1, w))

    def _walk(self, side: int, letters: dict):
        """Yield (class type, product) for every class of one side.

        The classes' words, read from the right, key a trie whose node product
        is its letter times its parent's product.  The walk is depth first and
        computes a node's product only when it pops the node, so about one
        product per trie level is alive at a time.
        """
        root: tuple = ({}, [])  # (children by letter, class types ending here)
        for cl in conjugacy_classes(self.l if side == 0 else self.lp):
            node = root
            for key in reversed(_word(side, cl["rep"])):
                node = node[0].setdefault(key, ({}, []))
            node[1].append(cl["type"])
        stack = [(None, root, self._one)]  # (letter, node, parent's product)
        while stack:
            key, (children, types), prod = stack.pop()
            if key is not None:
                prod = _step(letters[key], prod, self.dim)
            for t in types:
                yield t, prod
            stack.extend((key, child, prod) for key, child in children.items())

    def character(self) -> dict:
        """Trace on one representative per conjugacy-class pair.

        Keyed by ((pos_type, neg_type), (pos_type, neg_type)).  The side with
        fewer classes is held, each product flattened once; the other side is
        streamed from its walk, and each of its products meets every held one.
        """
        letters = self._letters()
        classes = (conjugacy_classes(self.l), conjugacy_classes(self.lp))
        held = 0 if len(classes[0]) <= len(classes[1]) else 1
        flats = [(t, _flat(prod, self.dim)) for t, prod in self._walk(held, letters)]
        traces = {}
        for t, prod in self._walk(1 - held, letters):
            fs = _flat(prod, self.dim, transposed=True)
            for th, fh in flats:
                traces[(th, t) if held == 0 else (t, th)] = _trace(fh, fs)
        pairs = [(cl["type"], cr["type"]) for cl in classes[0] for cr in classes[1]]
        return {pair: traces[pair] for pair in pairs}


def _step(letter, prod, dim: int):
    """letter times prod, each a signed permutation (a tuple) or columns (a list).
    A relabel of a column cannot cancel, so it drops no zeros; a sum does."""
    if isinstance(letter, tuple):
        perm, signs = letter
        if isinstance(prod, tuple):
            return [perm[r] for r in prod[0]], [signs[r] * s for r, s in zip(*prod)]
        return [{perm[r]: signs[r] * c for r, c in col.items()} for col in prod]
    if isinstance(prod, tuple):
        return [{q + r: s * a for r, a in letter[q]} for q, s in zip(*prod)]
    return [_nonzero(_apply(letter, col.items(), dim)) for col in prod]


def _columns(prod) -> list:
    """A product as sparse columns {row: c}."""
    if isinstance(prod, tuple):
        return [{r: s} for r, s in zip(*prod)]
    return prod


def _flat(prod, dim: int, transposed: bool = False) -> dict:
    """A product's entries as one dict: entry (r, p) keyed r*dim + p, or
    p*dim + r when transposed."""
    if isinstance(prod, tuple):
        if transposed:
            return {p * dim + r: s for p, (r, s) in enumerate(zip(*prod))}
        return {r * dim + p: s for p, (r, s) in enumerate(zip(*prod))}
    if transposed:
        return {p * dim + r: c for p, col in enumerate(prod) for r, c in col.items()}
    return {r * dim + p: c for p, col in enumerate(prod) for r, c in col.items()}


def _trace(fa: dict, fb_t: dict) -> int:
    """trace(A B) from A flattened and B flattened transposed: the sum of
    A[r][p] B[p][r] over the keys r*dim + p where both are nonzero."""
    return sum(fa[k] * fb_t[k] for k in fa.keys() & fb_t.keys())
