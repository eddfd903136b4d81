"""The graded bimodule: basis, generator columns, relation suite, the nu = 1 group pair.

Vectors and columns hold one integer key per entry: {e*dim + p: c} is the
integer c times nu^(e/2) at basis position p, and _pe decodes a key to (p, e).
A stored column p is keyed relative to p; mod.column(key, p) reads it with
absolute keys, and a test that corrupts a column stores it back relative.
The relation check compares the two sides of a relation on these keys exactly;
at nu = 1 the exponents are summed out.
"""

import hashlib
import json
import math
import re
from fractions import Fraction

import pytest

from thetahecke import VerificationError
from thetahecke.bipartition import decompose, expected_decomposition
from thetahecke.heckealg import HeckeParams, he_inv_basis
from thetahecke.laurent import LaurentPoly
from thetahecke.thetamod import (
    GroupRepAtOne,
    ThetaModule,
    _apply_word,
    _columns,
    _flat,
    _nonzero,
    _trace,
    _word,
    grade_dim_formula,
    verify_work_formula,
)
from thetahecke.weylbc import (
    conjugacy_classes,
    flip_at,
    gen_perm,
    identity,
    inv,
    reduced_word,
    swap_range,
)

from oracles import (
    character_by_class,
    decompose_by_classes,
    nested_labels,
    product_by_columns,
    transfer_column,
    verify_every_column,
)

MU = Fraction(1, 2)
# an exponent far past any fixed-width packing of (position, exponent)
HUGE_MU = Fraction(1000000000000000000000000000001, 2)


def _pe(mod: ThetaModule, key: int) -> tuple[int, int]:
    """The (position, exponent) of a vector key e*dim + p."""
    e, p = divmod(key, mod.dim)
    return p, e


def _decoded(mod: ThetaModule, vec) -> dict:
    """A vector or column as {(p, e): c}."""
    return {_pe(mod, key): c for key, c in dict(vec).items()}


def _apply_keys(mod: ThetaModule, keys, vec: dict) -> dict:
    """Apply a sequence of generator keys, the rightmost first, zeros dropped."""
    return _nonzero(_apply_word([mod.matrix(key) for key in keys], vec.items(), mod.dim))


# -- basis ----------------------------------------------------------------------


def test_grade_dims_match_formula():
    mod = ThetaModule(3, 3, MU)
    assert mod.grade_dims() == [1, 18, 72, 48]
    assert mod.dim == 139
    for l, lp in [(1, 2), (2, 2), (3, 2)]:
        mod = ThetaModule(l, lp, MU)
        assert mod.grade_dims() == [grade_dim_formula(l, lp, k) for k in range(min(l, lp) + 1)]


def test_total_dimensions_frozen():
    def total(l, lp):
        return sum(grade_dim_formula(l, lp, k) for k in range(min(l, lp) + 1))

    assert total(3, 3) == 139
    assert total(4, 3) == 361
    assert total(4, 4) == 1473
    assert total(5, 5) == 19091


def test_basis_positions_are_consistent():
    """label(p) lists the labels in the order of the nested loop in
    tests/oracles.py, position inverts it, and each grade is one run of
    positions that opens with its unit label (k, 1, 1, 1) at unit_pos(k)."""
    shapes = [(l, lp) for l in range(4) for lp in range(4)] + [(2, 8), (4, 4)]
    for l, lp in shapes:
        mod = ThetaModule(l, lp, MU)
        assert [mod.label(p) for p in range(mod.dim)] == nested_labels(l, lp)
        for p in range(mod.dim):
            assert mod.position(*mod.label(p)) == p
        lo = 0
        for k, size in enumerate(mod.grade_dims()):
            hi = lo + size
            assert all(mod.label(p)[0] == k for p in range(lo, hi))
            assert lo == mod.unit_pos(k) < hi
            assert mod.label(lo) == (k, identity(l), identity(lp), identity(k))
            lo = hi
        assert lo == mod.dim


def test_non_labels_and_outside_positions_are_refused():
    mod = ThetaModule(2, 3, MU)
    e2, e3 = identity(2), identity(3)
    not_labels = [
        (1, e2, e3, identity(2)),  # a slot of the wrong size
        (2, (2, 1), e3, identity(2)),  # d1 no grade-2 sym_block factor
        (1, e2, (1, 3, 2), (1,)),  # d2 no grade-1 mixed_block factor
        (3, e2, e3, identity(3)),  # past the top grade
        (-1, e2, e3, identity(2)),  # before grade 0, which a list index would wrap to the top
    ]
    for k, d1, d2, x in not_labels:
        with pytest.raises(VerificationError, match=re.escape(f"{(k, d1, d2, x)} is not a label of (2,3)")):
            mod.position(k, d1, d2, x)
    for p in (-1, -mod.dim, mod.dim, mod.dim + 1):
        with pytest.raises(ValueError, match=re.escape(f"position {p} is outside range({mod.dim})")):
            mod.label(p)


# -- generator columns ------------------------------------------------------------


def test_rank_one_flip_column_frozen():
    """Hand-checked action of the flip on the bottom grade at (1, 1)."""
    mod = ThetaModule(1, 1, MU)
    e1 = identity(1)
    p_bottom = mod.position(0, e1, e1, ())
    col = mod.column((0, 1), p_bottom)
    want = {
        (p_bottom, -2): -1,
        (mod.position(1, e1, e1, (1,)), -2): -1,
        (mod.position(1, e1, flip_at(1, 1), (1,)), 1): 1,
    }
    assert _decoded(mod, col) == want
    assert col == tuple(sorted((e * mod.dim + p, c) for (p, e), c in want.items()))


def test_bottom_grade_eigenvectors():
    """Plain and primed swaps fix the bottom grade with eigenvalue nu; the
    primed flip negates it."""
    for l, lp in [(2, 2), (3, 2), (2, 3)]:
        mod = ThetaModule(l, lp, MU)
        v = {mod.unit_pos(0): 1}
        for i in range(1, l):
            assert _decoded(mod, mod.apply_gen((0, i), v)) == {(mod.unit_pos(0), 2): 1}
        for i in range(1, lp):
            assert _decoded(mod, mod.apply_gen((1, i), v)) == {(mod.unit_pos(0), 2): 1}
        assert _decoded(mod, mod.apply_gen((1, lp), v)) == {(mod.unit_pos(0), 0): -1}


def test_apply_word_composes_columns():
    mod = ThetaModule(3, 2, MU)
    v = mod.apply_gen((0, 3), {mod.unit_pos(1): 1})
    lhs = _apply_keys(mod, [(0, 1), (0, 2)], v)
    rhs = mod.apply_gen((0, 1), mod.apply_gen((0, 2), v))
    assert lhs == _nonzero(rhs)
    lhs = _apply_keys(mod, [(1, 1)], v)
    rhs = mod.apply_gen((1, 1), v)
    assert lhs == _nonzero(rhs)


# a {p: LaurentPoly} reference of one generator application, with LaurentPoly arithmetic


def _to_poly_vec(mod: ThetaModule, vec) -> dict:
    out: dict = {}
    for (p, e), c in _decoded(mod, vec).items():
        out.setdefault(p, {})[e] = c
    return {p: LaurentPoly(terms) for p, terms in out.items()}


def _reference_apply_gen(mod: ThetaModule, key: tuple, vec: dict) -> dict:
    out: dict = {}
    for p, c in vec.items():
        for r, a in _to_poly_vec(mod, mod.column(key, p)).items():
            s = out.get(r, LaurentPoly.zero()) + c * a
            if s:
                out[r] = s
            else:
                out.pop(r, None)
    return out


@pytest.mark.parametrize("shape", [(2, 2), (3, 2)], ids=["2,2", "3,2"])
def test_apply_word_matches_laurent_reference(shape):
    """On random sparse integer vectors and random words, the integer
    e*dim + p arithmetic equals LaurentPoly arithmetic, also for exponents
    far past any fixed-width packing, of either sign."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    mod = ThetaModule(*shape, MU)
    keys = mod.gen_keys()
    far = 2 * 10**30 + 1
    exponents = st.one_of(st.integers(-8, 8), st.sampled_from([far, -far]))
    vectors = st.dictionaries(
        st.builds(lambda p, e: e * mod.dim + p, st.integers(0, mod.dim - 1), exponents),
        st.integers(-5, 5).filter(bool),
        max_size=6,
    )

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(vec=vectors, word=st.lists(st.sampled_from(keys), max_size=5))
    def check(vec, word):
        want = _to_poly_vec(mod, vec)
        for key in reversed(word):
            want = _reference_apply_gen(mod, key, want)
        assert _to_poly_vec(mod, _apply_keys(mod, word, vec)) == want

    check()


# sha256 of every column at (3,3) as [key, p, sorted [r, e, c] entries], recorded
# from the {p: LaurentPoly} columns this representation replaced; mu = -1, where
# the primed flip's descent is a plain relabel, and mu = 0 were recorded from the
# flip built by whole double-coset words before the one-generator recursion
FROZEN_COLUMN_DIGESTS = {
    Fraction(1, 2): "796134564443975a2121651458b2f2ef4cb4478576898f128ccea1cedf9daad4",
    Fraction(-3, 2): "a85c9e365eb0e4a1d6e70bb34484b2992711693401eb245b700a49bcc135aa6a",
    Fraction(2): "7c270b4e62fc4f5eaeb4d4fef42878539ed41c16dd056b71c6e6005cf9010e10",
    Fraction(-1): "b5e66ae4c5f41fc7bc8bc22e2c9ed35d84b0a9c1fe697cd0bd505e15cc05595c",
    Fraction(0): "251e3c3eca2198c700b892b45d40a5e621a8b5ba1cd70dbf87b2a6ebe7789be5",
}


@pytest.mark.parametrize("mu", sorted(FROZEN_COLUMN_DIGESTS), ids=str)
def test_columns_frozen_rank_three(mu):
    mod = ThetaModule(3, 3, mu)
    doc = [
        [list(key), p, sorted([*_pe(mod, k), c] for k, c in mod.column(key, p))]
        for key in mod.gen_keys()
        for p in range(mod.dim)
    ]
    assert all(c for _, _, entries in doc for _, _, c in entries)
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == FROZEN_COLUMN_DIGESTS[mu]


TRANSFER_SHAPES = [(l, lp, mu) for mu in (MU, -1, 3) for l in range(5) for lp in range(5)]
TRANSFER_SHAPES += [(5, 4, MU), (2, 8, MU)]


@pytest.mark.parametrize(
    "l, lp, mu", TRANSFER_SHAPES, ids=[f"{l},{lp},{mu}" for l, lp, mu in TRANSFER_SHAPES]
)
def test_transfer_columns_match_label_by_label_reference(l, lp, mu):
    """Every generator but the unprimed flip, built from the grade's tensor
    layout, has the columns the label-by-label reference gives, tuple for
    tuple.  At mu = -1 the primed flip's parameter is 1, so its descent
    column is one plain relabel."""
    mod = ThetaModule(l, lp, mu)
    for side, g in mod.gen_keys():
        if (side, g) != (0, l):
            want = [transfer_column(mod, side, g, p) for p in range(mod.dim)]
            assert [mod.column((side, g), p) for p in range(mod.dim)] == want, (side, g)


@pytest.mark.parametrize("shape", [(3, 3), (2, 8)], ids=["3,3", "2,8"])
def test_transfer_letters_share_their_templates(shape):
    """Each column is stored relative to its position, so the positions that
    take one template hold the one tuple: every transfer letter holds fewer
    than dim/2 distinct column objects.  A shared template replaced at one
    position changes no other position, and the report, the every-column
    check's, names the corrupted column first."""
    l, lp = shape
    mod = ThetaModule(l, lp, MU)
    for key in mod.gen_keys():
        if key != (0, l):
            assert len({id(col) for col in mod.matrix(key)}) < mod.dim / 2, key
    key, cols = (1, 1), mod.matrix((1, 1))
    # the lowest position whose template another position holds too
    p = next(q for q, col in enumerate(cols) if sum(c is col for c in cols) > 1)
    template, before = cols[p], [mod.column(key, q) for q in range(mod.dim)]
    sharers = [q for q, col in enumerate(cols) if q != p and col is template]
    _corrupt(mod, key, p, 1)
    after = [mod.column(key, q) for q in range(mod.dim)]
    assert after[p] != before[p] and after[:p] + after[p + 1:] == before[:p] + before[p + 1:]
    assert sharers and all(cols[q] is template for q in sharers)
    rep = mod.verify_relations()
    assert not rep["ok"] and _reports(rep) == verify_every_column(mod)["relations"]
    assert next(iter(_failures(rep).values()))["column"] == mod._index_obj(p)


def test_coset_image_outside_the_factors_is_a_verification_error(monkeypatch):
    """A coset image missing from its grade's factor list is named, as a
    missing label is."""
    mod = ThetaModule(2, 2, MU)
    monkeypatch.setattr("thetahecke.thetamod.deodhar_transfer", lambda d, g, spec: ("coset", (9, 9), 1))
    message = "(9, 9) is not a sym_block factor of grade 0 of (2,2)"
    with pytest.raises(VerificationError, match=re.escape(message)):
        mod.matrix((0, 1))


# -- relation suite ----------------------------------------------------------------


def test_suite_shape():
    assert len(ThetaModule(1, 1, MU).relation_suite()) == 3
    suite = ThetaModule(3, 3, MU).relation_suite()
    assert len(suite) == 21
    names = [chk["name"] for chk in suite]
    assert len(set(names)) == 21
    assert "quad_flip" in names and "cross_flip_prime_flip" in names


@pytest.mark.parametrize("mu", [Fraction(1, 2), -1, 0, 3], ids=str)
def test_each_side_has_one_term_at_one(mu):
    """At nu = 1 a term's scalar is its coefficient sum; each side of every
    suite entry has exactly one term whose sum is nonzero, and the sum is 1,
    so the nu = 1 check may read a side as that one word."""
    for l in range(5):
        for lp in range(5):
            for chk in ThetaModule(l, lp, mu).relation_suite():
                for side in (chk["lhs"], chk["rhs"]):
                    sums = [sum(t.values()) for t, _ in side]
                    assert [c for c in sums if c] == [1], (l, lp, chk["name"], sums)


@pytest.mark.parametrize("mu", [Fraction(1, 2), Fraction(-3, 2), 2])
def test_relations_hold_rank_two(mu):
    rep = ThetaModule(2, 2, mu).verify_relations()
    assert rep["ok"]
    assert all(r["ok"] for r in rep["relations"])


def test_relations_hold_rank_three():
    rep = ThetaModule(3, 3, Fraction(-1, 2)).verify_relations()
    assert rep["ok"] and len(rep["relations"]) == 21


def test_relations_hold_asymmetric_shapes():
    for l, lp in [(1, 2), (2, 1), (3, 1)]:
        assert ThetaModule(l, lp, Fraction(3, 2)).verify_relations()["ok"]


def _corrupt(mod: ThetaModule, key: tuple, p: int, e: int) -> None:
    """Add nu^(e/2) to the lowest row of a column, once every generator is
    built, so no other column is built from the corrupted one; the column is
    stored back relative to p."""
    for g in mod.gen_keys():
        mod.matrix(g)
    col = dict(mod.column(key, p))
    # columns sort by (e, r), so the lowest row is not the first entry
    r = min(_pe(mod, k)[0] for k in col)
    k = e * mod.dim + r
    col[k] = col.get(k, 0) + 1
    mod.matrix(key)[p] = tuple(sorted((k - p, c) for k, c in col.items() if c))


BOTTOM = {"k": 0, "d1": [1, 2], "d2": [1, 2], "x": []}


@pytest.mark.parametrize(
    "k, e, residual, failing",
    [
        (1, 6, "-nu^1", ["quad_flip", "braid_flip", "cross_flip_prime_swap_1"]),
        (1, 0, "-nu^-2", ["quad_flip", "braid_flip", "cross_flip_prime_swap_1"]),
        # the difference spans five rows; the residual is the lowest row's
        (0, 6, "-2*nu^1 + nu^3 - nu^(7/2) + nu^6", ["quad_flip", "braid_flip"]),
    ],
    ids=["shifted_term", "constant_term", "bottom_column"],
)
def test_corrupted_column_is_reported(k, e, residual, failing):
    """The flip column of the grade-k unit is corrupted; the report is pinned
    to the one the {p: LaurentPoly} columns gave."""
    mod = ThetaModule(2, 2, MU)
    _corrupt(mod, (0, 2), mod.unit_pos(k), e)
    rep = mod.verify_relations()
    assert not rep["ok"]
    assert [r["name"] for r in rep["relations"] if not r["ok"]] == failing
    failure = next(r["failure"] for r in rep["relations"] if not r["ok"])
    assert failure == {"column": BOTTOM, "entry": BOTTOM, "residual": residual}


def test_corrupted_column_is_reported_at_huge_mu():
    """The primed flip's nu^(-1-mu) keeps its exact exponent in the residual."""
    mod = ThetaModule(2, 2, HUGE_MU)
    p = mod.position(1, (1, 2), (-2, 1), (1,))
    r = mod.position(1, (1, 2), (2, 1), (1,))
    e = int(2 * (-1 - HUGE_MU))
    assert mod.column((1, 2), p)[0] == (e * mod.dim + r, 1)
    _corrupt(mod, (1, 2), p, e)
    rep = mod.verify_relations()
    bad = [r for r in rep["relations"] if not r["ok"]]
    assert bad[0]["name"] == "quad_prime_flip"
    where = {"k": 1, "d1": [1, 2], "d2": [2, 1], "x": [1]}
    assert bad[0]["failure"] == {
        "column": where,
        "entry": where,
        "residual": "nu^(-1000000000000000000000000000003/2)",
    }


def test_corrupted_swap_column_is_reported_at_huge_mu():
    """At a 31-digit mu the report of a corrupted swap column is pinned, while
    the relations with a flip carry exponents near 10^30."""
    mod = ThetaModule(2, 2, HUGE_MU)
    _corrupt(mod, (0, 1), mod.unit_pos(0), 3)
    rep = mod.verify_relations()
    bad = [r for r in rep["relations"] if not r["ok"]]
    assert [r["name"] for r in bad] == ["quad_swap_1", "braid_flip"]
    assert bad[0]["failure"] == {"column": BOTTOM, "entry": BOTTOM, "residual": "nu^(3/2) + nu^(5/2) + nu^3"}


def _label_obj(k, d1, d2, x) -> dict:
    return {"k": k, "d1": list(d1), "d2": list(d2), "x": list(x)}


def _failures(rep: dict) -> dict:
    return {r["name"]: r["failure"] for r in rep["relations"] if not r["ok"]}


def test_corrupted_swap_column_off_the_seeds_is_reported():
    """A side-0 swap corrupted at a label with d2 and x not the identity, no
    seed of the side-0 relations, breaks cross relations too, so every side
    relation runs on every column; each report is pinned to the one the
    every-column check gave."""
    mod = ThetaModule(3, 3, MU)
    label = (2, (2, 1, 3), (2, 3, 1), (2, 1))
    _corrupt(mod, (0, 1), mod.position(*label), 1)
    rep = mod.verify_relations()
    assert rep["seeds"] is None
    here = _label_obj(*label)
    low = _label_obj(2, (1, 2, 3), (2, 3, 1), (2, 1))
    assert _failures(rep) == {
        "quad_swap_1": {"column": low, "entry": low, "residual": "nu^(1/2)"},
        "braid_swap_1": {
            "column": here,
            "entry": _label_obj(2, (2, 1, 3), (2, 3, 1), (1, 2)),
            "residual": "nu^(3/2)",
        },
        "comm_flip_swap_1": {
            "column": _label_obj(1, (2, 3, 1), (3, 1, 2), (1,)),
            "entry": low,
            "residual": "nu^(-3/2)",
        },
        "cross_swap_1_prime_swap_1": {
            "column": _label_obj(2, (2, 1, 3), (1, 3, 2), (2, 1)),
            "entry": low,
            "residual": "nu^(1/2)",
        },
        "cross_swap_1_prime_swap_2": {
            "column": _label_obj(2, (2, 1, 3), (2, 3, 1), (1, 2)),
            "entry": low,
            "residual": "nu^(1/2)",
        },
        "cross_swap_1_prime_flip": {
            "column": here,
            "entry": _label_obj(2, (1, 2, 3), (2, -3, 1), (2, 1)),
            "residual": "-nu^(1/2)",
        },
    }


def test_corrupted_swap_column_on_a_seed_is_reported():
    """A side-0 swap corrupted at the grade-0 unit, a seed of the side-0
    relations and a common eigenvector of the primed generators: every cross
    relation passes, so the side relations run on the seeds alone, and each
    report is pinned to the one the every-column check gave."""
    mod = ThetaModule(3, 3, MU)
    _corrupt(mod, (0, 2), mod.unit_pos(0), 3)
    rep = mod.verify_relations()
    assert rep["seeds"] == [8, 27]
    unit = _label_obj(0, (1, 2, 3), (1, 2, 3), ())
    assert _failures(rep) == {
        "quad_swap_2": {"column": unit, "entry": unit, "residual": "nu^(3/2) + nu^(5/2) + nu^3"},
        "braid_swap_1": {"column": unit, "entry": unit, "residual": "-nu^(7/2) - nu^4"},
        "braid_flip": {
            "column": unit,
            "entry": _label_obj(1, (1, 2, 3), (1, 2, 3), (1,)),
            "residual": "2*nu^(-7/2) + nu^-3",
        },
    }


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (3, 3)], ids=["2,2", "3,2", "3,3"])
def test_seed_check_matches_every_column_oracle(shape):
    """With one entry of one generator column added or changed, both flips
    included, the check on the seeds gives the every-column check's verdict,
    per-relation verdicts and failure reports; a changed transfer column is
    no longer its layout's template, so its letter's cross relations run on
    every column, not on blocks."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    mod = ThetaModule(*shape, MU)
    dim, keys = mod.dim, mod.gen_keys()
    clean = {key: list(mod.matrix(key)) for key in keys}

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(
        key=st.sampled_from(keys),
        p=st.integers(0, dim - 1),
        r=st.integers(0, dim - 1),
        j=st.integers(-4, 4),
        c=st.integers(-2, 2),
    )
    def check(key, p, r, j, c):
        for g, cols in clean.items():
            mod._cols[g] = list(cols)
        col = dict(mod.column(key, p))
        col[j * dim + r] = c
        mod._cols[key][p] = tuple(sorted((k - p, a) for k, a in col.items() if a))
        rep = mod.verify_relations()
        want = verify_every_column(mod)
        assert rep["ok"] == want["ok"]
        assert _reports(rep) == want["relations"]

    check()


def _corrupt_template(mod: ThetaModule, key: tuple, k: int, i: int, x: int, j: int, y: int, e: int, c: int):
    """Add c nu^(e/2) to template x of row i of a transfer letter's grade-k
    rows, the entry on factor index j and slot y with the unread factor
    unchanged, in the build's record and in every column its layout assigns
    to that template, so the letter stays a tensor of blocks."""
    (d1s, d2s, slots), start, dim = mod._factors[k], mod._starts[k], mod.dim
    n2, n3 = len(d2s), len(slots)
    rows, cols = mod._rows[key][k], mod.matrix(key)
    if key[0] == 0:  # side 0 reads d1
        positions = [start + (i * n2 + i2) * n3 + x for i2 in range(n2)]
        off = e * dim + (j - i) * n2 * n3 + y - x
    else:
        positions = [start + (i1 * n2 + i) * n3 + x for i1 in range(len(d1s))]
        off = e * dim + (j - i) * n3 + y - x
    template = dict(rows[i][x])
    template[off] = template.get(off, 0) + c
    changed = tuple(sorted((o, a) for o, a in template.items() if a))
    rows[i] = rows[i][:x] + (changed,) + rows[i][x + 1:]
    for p in positions:
        cols[p] = changed


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (3, 3)], ids=["2,2", "3,2", "3,3"])
def test_block_decision_matches_every_column_oracle(shape):
    """With one transfer template changed in the build's record and in every
    column that takes it, the letter is still a tensor of blocks, so the
    block products alone must find a failure: verify_relations gives the
    every-column check's verdicts and failure reports, and a transfer pair
    runs on every column exactly when its relation fails."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    mod = ThetaModule(*shape, MU)
    transfer = [key for key in mod.gen_keys() if key != (0, mod.l)]
    clean = {key: list(mod.matrix(key)) for key in mod.gen_keys()}
    clean_rows = {key: [list(rows) for rows in mod._rows[key]] for key in transfer}
    suite = mod.relation_suite()
    pairs = {chk["name"] for chk in suite if chk["side"] is None and (0, mod.l) not in chk["lhs"][0][1]}

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(
        key=st.sampled_from(transfer),
        k=st.integers(0, mod.kmax),
        ij=st.tuples(st.integers(0, 99), st.integers(0, 99)),
        xy=st.tuples(st.integers(0, 99), st.integers(0, 99)),
        e=st.integers(-4, 4),
        c=st.sampled_from([-2, -1, 1, 2]),
    )
    def check(key, k, ij, xy, e, c):
        for g, cols in clean.items():
            mod._cols[g] = list(cols)
        for g, grade_rows in clean_rows.items():
            mod._rows[g] = [list(rows) for rows in grade_rows]
        n, n3 = len(mod._rows[key][k]), len(mod._factors[k][2])
        _corrupt_template(mod, key, k, ij[0] % n, xy[0] % n3, ij[1] % n, xy[1] % n3, e, c)
        rep = mod.verify_relations()
        want = verify_every_column(mod)
        assert rep["ok"] == want["ok"]
        assert _reports(rep) == want["relations"]
        failing = {r["name"] for r in want["relations"] if not r["ok"]} & pairs
        decided = (rep["cross"]["transfer_on_blocks"], rep["cross"]["transfer_on_columns"])
        assert decided == (len(pairs) - len(failing), len(failing))

    check()


@pytest.mark.parametrize("mu", [MU, -1], ids=str)
def test_clean_transfer_pairs_are_decided_on_blocks(mu, monkeypatch):
    """On a clean module every one of the (l-1) l' transfer x transfer cross
    relations is decided on blocks, up to (4,4), and each of the l' flip
    pairs on the block seeds and one primed ascent per column: l' checks on
    each of the sum_k C(l, k) block seeds and one on every other column.
    None runs on every column: a silent fall back would give the same
    reports.  With the flip built, a run reads each side's exact ascents
    once: one table of the unprimed swaps' and one of the primed letters'."""
    for l in range(5):
        for lp in range(5):
            mod = ThetaModule(l, lp, mu)
            rep = mod.verify_relations()
            cross = rep["cross"]
            assert rep["ok"] and cross["transfer_on_columns"] == cross["flip_on_columns"] == 0, (l, lp)
            flips = lp if l else 0
            blocks = sum(math.comb(l, k) for k in range(min(l, lp) + 1))
            want = (max(l - 1, 0) * lp, flips, flips * blocks + mod.dim - blocks if flips else 0)
            assert (cross["transfer_on_blocks"], cross["flip_on_ascents"], cross["ascent_checks"]) == want, (l, lp)
    mod = ThetaModule(3, 3, mu)
    mod.matrix((0, 3))
    scans, real = [], ThetaModule._ascent_table
    monkeypatch.setattr(ThetaModule, "_ascent_table", lambda self, keys: scans.append(keys) or real(self, keys))
    assert mod.verify_relations()["ok"]
    assert scans == [[(0, 1), (0, 2)], [(1, 1), (1, 2), (1, 3)]]


def _block_seeds(mod: ThetaModule) -> list[tuple[int, int]]:
    """(k, position) of each block seed (k, d1, 1, 1) whose tail k+1..l' is not empty."""
    lp = mod.lp
    return [
        (k, mod.position(k, d1, identity(lp), identity(k)))
        for k in range(min(mod.kmax, lp - 1) + 1)
        for d1 in mod._factors[k][0]
    ]


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (3, 3)], ids=["2,2", "3,2", "3,3"])
def test_flip_decision_matches_every_column_oracle(shape):
    """With one flip column changed (an entry changed, added or dropped), one
    tail letter made non-scalar at a block seed, or one primed column turned
    into an exact ascent onto another position, possibly in another block,
    verify_relations gives the every-column check's verdicts and failure
    reports.  The flip pairs run on every column exactly when a check or a
    precondition of the block argument fails: for a changed flip column
    exactly when a flip pair fails, since a check that fails is a failing
    relation, and for a tail letter always, since the tail no longer acts on
    its seed by scalars.  A new primed ascent may win its position's first
    ascent from another block, which the block argument must refuse; the
    flip pairs then run on every column, as they must whenever one fails."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    mod = ThetaModule(*shape, MU)
    dim, flip, lp = mod.dim, (0, mod.l), mod.lp
    clean = {key: list(mod.matrix(key)) for key in mod.gen_keys()}
    seeds = _block_seeds(mod)
    flips = {chk["name"] for chk in mod.relation_suite() if chk["side"] is None and flip in chk["lhs"][0][1]}

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(
        how=st.sampled_from(["change", "add", "drop", "tail", "ascent"]),
        where=st.integers(0, 10**6),
        r=st.integers(0, dim - 1),
        j=st.integers(-4, 4),
        c=st.sampled_from([-2, -1, 1, 2]),
    )
    def check(how, where, r, j, c):
        for g, cols in clean.items():
            mod._cols[g] = list(cols)
        if how == "tail":
            k, p = seeds[where % len(seeds)]
            key = (1, k + 1 + where // len(seeds) % (lp - k))
            r = r if r != p else (p + 1) % dim  # off the seed's row
        elif how == "ascent":
            key, p = (1, 1 + where % lp), where // lp % (dim - 1)
            r = p + 1 + r % (dim - 1 - p)  # any later position
        else:
            key, p = flip, where % dim
        col = dict(mod.column(key, p))
        if how == "ascent":
            col = {r: 1}  # e_r alone: T'_b e_p = e_r, an exact ascent
        elif how in ("tail", "add"):
            col[j * dim + r] = col.get(j * dim + r, 0) + c
        else:
            entry = sorted(col)[where // dim % len(col)]
            col[entry] = 0 if how == "drop" else col[entry] + c
        mod._cols[key][p] = tuple(sorted((k - p, a) for k, a in col.items() if a))
        rep = mod.verify_relations()
        want = verify_every_column(mod)
        assert rep["ok"] == want["ok"]
        assert _reports(rep) == want["relations"]
        flip_fails = any(not r["ok"] for r in want["relations"] if r["name"] in flips)
        decided = (rep["cross"]["flip_on_ascents"], rep["cross"]["flip_on_columns"])
        if how == "ascent":
            assert decided in ((0, len(flips)), (len(flips), 0)) and not (flip_fails and decided[0])
        else:
            fell_back = how == "tail" or flip_fails
            assert decided == ((0, len(flips)) if fell_back else (len(flips), 0))

    check()


def test_flip_blocks_are_read_from_the_primed_columns():
    """Each (k, d1) block's seed is its first position, (k, d1, 1, 1), the
    block runs to the next seed, [W' : B_(l'-k)] positions, and the primed
    letters' first exact ascent into every other position starts within its
    block.  The classification refuses the block argument, before any
    relation check, when a tail letter is no scalar on a seed, a position
    loses every exact ascent into it, or a position's first exact ascent
    starts in another block."""
    mod = ThetaModule(3, 3, MU)
    primed = [(1, b) for b in (1, 2, 3)]
    table = mod._ascent_table(primed)
    seeds = mod._flip_seeds(table)
    assert seeds == [p for _, p in _block_seeds(mod)] + [mod.unit_pos(3)]
    for lo, hi in zip(seeds, seeds[1:] + [mod.dim]):
        k = mod.label(lo)[0]
        assert table[lo] is None and mod.label(lo)[2:] == (identity(3), identity(k))
        assert seeds[0] == 0 and hi - lo == math.perm(3, k) << k
        for r in range(lo + 1, hi):
            gen, q = table[r]
            assert lo <= q < r and gen[q] == ((r - q, 1),)
    clean = {key: list(mod.matrix(key)) for key in mod.gen_keys()}

    # the tail letter s'_2 on the grade-1 seed (1, s_1 s_2, 1, 1) gains an entry off its row
    p = mod.position(1, (2, 3, 1), identity(3), (1,))
    mod._cols[1, 2][p] += ((mod.dim - p, 1),)
    assert mod._flip_seeds(mod._ascent_table(primed)) is None

    # no exact ascent reaches (2, 1, s'_2, 1)
    mod._cols[1, 2] = list(clean[1, 2])
    r = mod.position(2, identity(3), (1, 3, 2), identity(2))
    for b in (1, 2, 3):
        cols = mod._cols[1, b]
        for q, col in enumerate(cols):
            if col == ((r - q, 1),):
                cols[q] = ((r - q, 2),)
    assert mod._flip_seeds(mod._ascent_table(primed)) is None

    # s'_1's first descent column, off the seeds and in grade 1, becomes an
    # exact ascent onto (2, 1, s'_2, 1): the first ascent into it in key
    # order now starts outside its block, and no other ascent is lost
    for b in (1, 2, 3):
        mod._cols[1, b] = list(clean[1, b])
    q = next(q for q, col in enumerate(clean[1, 1]) if len(col) > 1)
    assert q not in seeds and mod.label(q)[0] == 1
    mod._cols[1, 1][q] = ((r - q, 1),)
    assert mod._ascent_table(primed)[r] == (mod._cols[1, 1], q)
    assert mod._flip_seeds(mod._ascent_table(primed)) is None


def test_flip_column_turned_into_an_ascent_leaves_the_primed_seeds(monkeypatch):
    """The primed relations' seeds are read from the unprimed swaps alone, as
    they run before the flip pairs: a flip column changed into an exact
    ascent onto the primed seed (1, 1, s'_1, 1) leaves that seed in place,
    and every report is the every-column check's."""
    mod = ThetaModule(2, 2, MU)
    for key in mod.gen_keys():
        mod.matrix(key)
    seeds = _seeds(mod, 1)
    r = mod.position(1, identity(2), (2, 1), (1,))
    assert r in seeds
    mod._cols[0, 2][0] = ((r, 1),)
    assert _seeds(mod, 1) == seeds
    # the one scan verify_relations takes the primed seeds from reads no flip column
    scans, real = [], ThetaModule._ascent_table
    monkeypatch.setattr(ThetaModule, "_ascent_table", lambda self, keys: scans.append(keys) or real(self, keys))
    rep = mod.verify_relations()
    assert scans[0] == [(0, 1)]
    want = verify_every_column(mod)
    assert not rep["ok"] and not want["ok"]
    assert _reports(rep) == want["relations"]
    assert rep["cross"]["flip_on_columns"] == 2


def test_unit_pos_refuses_a_grade_outside_the_module():
    """unit_pos(k) is the first position of grade k for 0 <= k <= kmax, and
    any other k is refused, as label refuses a position outside range(dim)."""
    mod = ThetaModule(2, 2, MU)
    assert [mod.unit_pos(k) for k in range(3)] == [0, 1, 9]
    for k in (-1, 3):
        with pytest.raises(ValueError, match=re.escape(f"grade {k} is outside 0..2")):
            mod.unit_pos(k)


def _seeds(mod: ThetaModule, side: int) -> list[int]:
    """The seeds of one side's relations: the positions that no exact ascent
    of the other side's transfer letters reaches, the unprimed flip never
    read."""
    keys = [(1, g) for g in range(1, mod.lp + 1)] if side == 0 else [(0, g) for g in range(1, mod.l)]
    return [p for p, via in enumerate(mod._ascent_table(keys)) if via is None]


@pytest.mark.parametrize("mu", [Fraction(1, 2), -1, 0, 3], ids=str)
def test_seed_columns_are_the_other_sides_unit_labels(mu):
    """The side-0 relations' seeds, read from the primed generators' ascents,
    are the labels (k, d1, 1, 1); the side-1 relations' seeds, read from the
    unprimed swaps' alone, are (k, 1, d2, 1), and verify_relations reports
    their counts.  At mu = -1 the primed flip's descent relabel is no
    ascent.  With one side of rank 0 every position is a seed."""
    for l, lp in [(2, 2), (3, 3), (4, 4), (2, 8), (8, 2)]:
        mod = ThetaModule(l, lp, mu)
        labels = [[mod.label(p) for p in _seeds(mod, side)] for side in (0, 1)]
        every = [mod.label(p) for p in range(mod.dim)]
        assert labels[0] == [b for b in every if b[2] == identity(lp) and b[3] == identity(b[0])]
        assert labels[1] == [b for b in every if b[1] == identity(l) and b[3] == identity(b[0])]
        assert mod.verify_relations()["seeds"] == [len(labels[0]), len(labels[1])]
    for shape in [(0, 3), (3, 0)]:
        mod = ThetaModule(*shape, mu)
        assert _seeds(mod, 0) == _seeds(mod, 1) == list(range(mod.dim))


@pytest.mark.parametrize("shape", [(0, 3), (3, 0), (1, 4), (3, 2), (2, 3), (3, 3), (2, 8), (8, 2)])
def test_verify_work_counts_the_relation_column_checks(shape):
    """The closed-form work is the worst case: the cross relations on every
    column, as a transfer or a flip pair runs when it falls back, plus each
    side's relations on the seeds that verify_relations reports."""
    mod = ThetaModule(*shape, Fraction(1, 2))
    report = mod.verify_relations()
    suite = mod.relation_suite()
    sides = [{key[0] for _, word in chk["lhs"] + chk["rhs"] for key in word} for chk in suite]
    # each entry's side tag is the one side of its words, None for a cross relation
    assert [chk["side"] for chk in suite] == [next(iter(s)) if len(s) == 1 else None for s in sides]
    cross = sum(len(s) == 2 for s in sides)
    per_side = [sum(s == {side} for s in sides) for side in (0, 1)]
    seeds = report["seeds"]
    expected = cross * mod.dim + per_side[0] * seeds[0] + per_side[1] * seeds[1]
    assert report["ok"] and verify_work_formula(*shape) == expected


def _reports(rep: dict) -> list:
    return [{k: v for k, v in r.items() if k != "elapsed"} for r in rep["relations"]]


def test_planted_difference_vanishing_at_fixed_point_is_reported():
    """2^16 v^j - v^(j+1) added to a flip column is zero at v = 2^16, so a check
    at that one point would miss it; the exact check reports quad_flip first,
    with the planted difference as its residual."""
    mod = ThetaModule(2, 2, MU)
    for g in mod.gen_keys():
        mod.matrix(g)
    key, p, dim = (0, 2), mod.unit_pos(1), mod.dim
    col = mod.column(key, p)
    r, j = _pe(mod, col[0][0])
    col = dict(col)
    for k, c in ((j * dim + r, 2**16), ((j + 1) * dim + r, -1)):
        col[k] = col.get(k, 0) + c
    mod.matrix(key)[p] = tuple(sorted((k - p, c) for k, c in col.items() if c))

    rep = mod.verify_relations()
    assert not rep["ok"] and rep["seeds"] is None
    assert [r["name"] for r in rep["relations"] if not r["ok"]][0] == "quad_flip"
    unit = _label_obj(1, (1, 2), (1, 2), (1,))
    assert _failures(rep) == {
        "quad_flip": {"column": BOTTOM, "entry": BOTTOM, "residual": "-65536*nu^-4 + nu^(-7/2)"},
        "braid_flip": {
            "column": unit,
            "entry": _label_obj(1, (2, 1), (1, 2), (1,)),
            "residual": "65536*nu^-3 - nu^(-5/2)",
        },
        "cross_flip_prime_swap_1": {"column": unit, "entry": BOTTOM, "residual": "-65536*nu^-1 + nu^(-1/2)"},
    }


def test_huge_mu_relations_run_unevaluated():
    """At a 31-digit mu the relations with a flip carry exponents near 10^30;
    every relation runs on the unevaluated generic columns and the whole
    suite passes, on the seeds as at a small mu."""
    rep = ThetaModule(2, 2, HUGE_MU).verify_relations()
    suite = ThetaModule(2, 2, HUGE_MU).relation_suite()
    assert rep["ok"] and len(suite) == 10
    assert [(r["name"], r["ok"]) for r in rep["relations"]] == [(chk["name"], True) for chk in suite]
    assert rep["seeds"] == ThetaModule(2, 2, MU).verify_relations()["seeds"]


def test_grade_count_mismatch_is_a_verification_error(monkeypatch):
    monkeypatch.setattr(
        "thetahecke.thetamod.grade_dim_formula", lambda l, lp, k: grade_dim_formula(l, lp, k) + 1
    )
    with pytest.raises(VerificationError, match="grade 0 of \\(1,1\\) has 1 labels"):
        ThetaModule(1, 1, MU)


@pytest.mark.parametrize("mu", [Fraction(1, 2), Fraction(-3, 2)], ids=str)
def test_labels_are_words_of_ascents(mu):
    """e_(k,d1,d2,x) = T_(d1) T'_(d2) T'_x e_k, so the flip seeds name their terms by label."""
    shapes = [(l, lp) for l in range(4) for lp in range(4)] + [(4, 2), (2, 4)]
    for l, lp in shapes:
        mod = ThetaModule(l, lp, mu)
        for p in range(mod.dim):
            k, d1, d2, x = mod.label(p)
            word = _word(0, d1) + _word(1, d2) + _word(1, x)
            assert _decoded(mod, _apply_keys(mod, word, {mod.unit_pos(k): 1})) == {(p, 0): 1}


def test_flip_seeds_and_columns_check_their_range():
    mod = ThetaModule(2, 2, MU)
    with pytest.raises(VerificationError, match="not a label"):
        mod.position(1, identity(2), identity(2), identity(2))
    for k in (-1, 2):
        with pytest.raises(ValueError, match="inner flip seed"):
            mod.seed_flip_inner(k)
    with pytest.raises(ValueError, match="no flip generator"):
        ThetaModule(0, 2, MU).column((0, 0), 0)


@pytest.mark.parametrize("mu", [Fraction(1, 2), Fraction(-3, 2), 2], ids=str)
@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 3), (3, 5)], ids=["2,2", "3,3", "4,3", "3,5"])
def test_cross_seed_matches_inverted_hecke_element(shape, mu):
    """The crossing seed, built by k inverse swap steps, is the inner seed under
    the Hecke-basis expansion of T_w^-1, w the inverted cross-block cycle."""
    l, lp = shape
    mod = ThetaModule(l, lp, mu)
    for k in range(1, min(l - 1, lp) + 1):
        # the seed is the flip column at the crossing label (k, w^-1, 1, 1)
        p = mod.position(k, swap_range(l - k, l, l), identity(lp), identity(k))
        inner = mod.seed_flip_inner(k)
        want: dict = {}
        t_inv = he_inv_basis(HeckeParams.signed(l, mu), inv(swap_range(l - k, l, l)))
        for u, c in t_inv.terms.items():
            tu = _to_poly_vec(mod, _apply_keys(mod, [(0, g) for g in reduced_word(u)], inner))
            for r, a in tu.items():
                want[r] = want.get(r, LaurentPoly.zero()) + c * a
        assert _to_poly_vec(mod, mod.column((0, l), p)) == {r: a for r, a in want.items() if a}


@pytest.mark.parametrize("shape", [(2, 2), (3, 3)], ids=["2,2", "3,3"])
def test_flip_without_a_predecessor_is_reported(shape):
    """The primed swap's column at e_1 is the only ascent onto the label with
    d2 = s_1 above it; corrupted, that label has neither a seed nor an
    ascent, and building the flip names it."""
    l, lp = shape
    mod = ThetaModule(l, lp, MU)
    q = mod.unit_pos(1)
    label = mod.label(mod.column((1, 1), q)[0][0])
    assert label == (1, identity(l), gen_perm(1, lp), identity(1))
    assert mod.column((1, 1), q) == ((mod.position(*label), 1),)
    mod.matrix((1, 1))[q] = ((mod.position(*label) - q, 2),)
    with pytest.raises(VerificationError, match=re.escape(f"no ascent reaches label {label}")):
        mod.matrix((0, l))


def test_negative_rank_is_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        ThetaModule(-1, 2, MU)


# -- the group pair at nu = 1 ------------------------------------------------------------


@pytest.mark.parametrize("mu", [Fraction(1, 2), 2])
def test_group_relations_at_one(mu):
    GroupRepAtOne(ThetaModule(2, 2, mu)).check_group_relations()


def test_generator_keys_follow_weylbc_numbering():
    """Key (side, g) is weylbc's generator g of the rank-l (side 0) or rank-l' (side 1) group."""
    mod = ThetaModule(2, 3, MU)
    rep = GroupRepAtOne(mod)
    mats = mod.matrices_at_one()

    def absolute(key):
        return [{p + r: c for r, c in col} for p, col in enumerate(mats[key])]

    for g in range(1, 3):
        assert rep.rep_left(gen_perm(g, 2)) == absolute((0, g))
    for g in range(1, 4):
        assert rep.rep_right(gen_perm(g, 3)) == absolute((1, g))
    keys = set(mod.gen_keys())
    for chk in mod.relation_suite():
        used = [k for _, word in chk["lhs"] + chk["rhs"] for k in word]
        assert set(used) <= keys


@pytest.mark.parametrize("shape", [(2, 2), (3, 2)], ids=["2,2", "3,2"])
def test_product_at_one_matches_apply_word(shape):
    """Each column of a word's product at nu = 1 is the symbolic word applied
    to that basis vector, with exponents summed out and zeros dropped."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    mod = ThetaModule(*shape, MU)
    rep = GroupRepAtOne(mod)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(word=st.lists(st.sampled_from(mod.gen_keys()), max_size=6))
    def check(word):
        cols = rep._product(word)
        for p in range(mod.dim):
            want: dict = {}
            for (r, _), c in _decoded(mod, _apply_keys(mod, word, {p: 1})).items():
                want[r] = want.get(r, 0) + c
            assert cols[p] == {r: c for r, c in want.items() if c}, (word, p)

    check()


@pytest.mark.parametrize("shape", [(2, 2), (3, 2)], ids=["2,2", "3,2"])
def test_product_matches_column_oracle(shape):
    """A word's product, read through its signed-permutation letters as
    relabels, has the columns of the letter-by-letter _apply oracle, on words
    mixing both sides and the unprimed flip."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    mod = ThetaModule(*shape, MU)
    rep = GroupRepAtOne(mod)

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(word=st.lists(st.sampled_from(mod.gen_keys()), max_size=6))
    def check(word):
        assert rep._product(word) == product_by_columns(rep, word), word

    check()


@pytest.mark.parametrize("mu", [Fraction(1, 2), -1, 0, 3], ids=str)
def test_every_letter_but_the_flip_is_a_signed_permutation(mu):
    """At nu = 1 every generator but the unprimed flip (0, l) is classified a
    signed permutation, and the flip joins them only on a one-dimensional
    module.  A classification that quietly failed would send every letter to
    _apply with the same results, so only this pins the relabel path."""
    for l in range(5):
        for lp in range(5):
            rep = GroupRepAtOne(ThetaModule(l, lp, mu))
            perms = {key for key, letter in rep._letters().items() if isinstance(letter, tuple)}
            keys = set(rep._mats)
            assert perms == keys - {(0, l)} or (rep.dim == 1 and perms == keys), (l, lp, sorted(perms))


@pytest.mark.parametrize("key", [(0, 1), (1, 1), (1, 2)], ids=lambda k: f"{k[0]},{k[1]}")
def test_negated_signed_permutation_entry_is_caught(key):
    """The one entry of column 0 negated keeps the generator a signed
    permutation, so the relabel path reads the corruption: before the group
    relations it fails one, and after they passed the decomposition breaks."""

    def corrupt(rep):
        ((r, c),) = rep._mats[key][0]
        rep._mats[key][0] = ((r, -c),)
        assert isinstance(rep._letters()[key], tuple)

    rep = GroupRepAtOne(ThetaModule(2, 2, MU))
    corrupt(rep)
    with pytest.raises(VerificationError, match=r"group relation \w+ fails at nu = 1"):
        rep.check_group_relations()
    rep = GroupRepAtOne(ThetaModule(2, 2, MU))
    rep.check_group_relations()
    corrupt(rep)
    try:
        mults = decompose(rep.character(), 2, 2)
    except VerificationError:
        return
    assert mults != expected_decomposition(2, 2)


def test_letter_with_a_repeated_row_is_applied_as_columns():
    """Columns of one entry +-1 that share a row are no permutation, so the
    letter is applied with _apply, which sums them, and the relations fail."""
    rep = GroupRepAtOne(ThetaModule(2, 2, MU))
    key = (0, 1)
    # column 1's rows, stored relative to position 0
    rep._mats[key][0] = tuple((1 + r, c) for r, c in rep._mats[key][1])
    assert isinstance(rep._letters()[key], list)
    with pytest.raises(VerificationError, match=r"group relation \w+ fails at nu = 1"):
        rep.check_group_relations()


def test_character_is_mu_independent_at_one():
    a = GroupRepAtOne(ThetaModule(2, 1, Fraction(1, 2))).character()
    b = GroupRepAtOne(ThetaModule(2, 1, Fraction(-5, 2))).character()
    assert a == b


# l, l' <= 3, then the rank-4 and rank-5 sides against a smaller one: the held
# side is the one with fewer classes, so these stream the left side, the right
# side, and (at l = l') break the tie
CHARACTER_SHAPES = [(l, lp) for l in range(4) for lp in range(4)] + [(4, 2), (2, 4), (5, 1), (1, 5)]


@pytest.mark.parametrize("shape", CHARACTER_SHAPES, ids=[f"{l},{lp}" for l, lp in CHARACTER_SHAPES])
def test_character_matches_per_class_oracle(shape):
    """The streamed trie walk gives the per-class loop's traces, in its key order."""
    rep = GroupRepAtOne(ThetaModule(*shape, MU))
    want = character_by_class(rep)
    got = rep.character()
    assert got == want
    assert list(got) == list(want)


# every shape up to (3,3), then the bench's widest: rank 6 on the right, 5 on the left
DECOMPOSE_SHAPES = [(l, lp) for l in range(4) for lp in range(4)] + [(2, 6), (5, 2)]


@pytest.mark.parametrize("shape", DECOMPOSE_SHAPES, ids=[f"{l},{lp}" for l, lp in DECOMPOSE_SHAPES])
def test_decompose_matches_per_class_oracle(shape):
    """On the real nu = 1 character, the row sums give the per-class-pair
    oracle's multiplicities, in its key order, and the predicted ones."""
    char = GroupRepAtOne(ThetaModule(*shape, MU)).character()
    got = decompose(char, *shape)
    want = decompose_by_classes(char, *shape)
    assert got == want == expected_decomposition(*shape)
    assert list(got) == list(want)


@pytest.mark.parametrize("shape", [(3, 2), (2, 4)], ids=["3,2", "2,4"])
def test_walk_yields_each_class_product_once(shape):
    """Each side's walk yields every class type once, with the product of its
    representative's word."""
    rep = GroupRepAtOne(ThetaModule(*shape, MU))
    for side, n in enumerate(shape):
        reps = {cl["type"]: cl["rep"] for cl in conjugacy_classes(n)}
        seen = []
        for t, prod in rep._walk(side, rep._letters()):
            seen.append(t)
            assert _columns(prod) == rep._product(_word(side, reps[t])), (side, t)
        assert sorted(seen) == sorted(reps)


@pytest.mark.parametrize("shape", [(2, 2), (3, 2)], ids=["2,2", "3,2"])
def test_trace_matches_dense_sum(shape):
    """_trace of a product flattened and one flattened transposed is the dense
    trace(A B), on words mixing both sides, whose products are not symmetric,
    with each product in its held form: a signed permutation or columns."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    mod = ThetaModule(*shape, MU)
    rep = GroupRepAtOne(mod)
    letters = rep._letters()
    dim = mod.dim
    words = st.lists(st.sampled_from(mod.gen_keys()), max_size=6)

    def dense(prod):
        cols = _columns(prod)
        return [[cols[p].get(r, 0) for p in range(dim)] for r in range(dim)]

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(a=words, b=words)
    def check(a, b):
        ca, cb = rep._compose(letters, a), rep._compose(letters, b)
        da, db = dense(ca), dense(cb)
        want = sum(da[r][p] * db[p][r] for r in range(dim) for p in range(dim))
        assert _trace(_flat(ca, dim), _flat(cb, dim, transposed=True)) == want, (a, b)

    check()


@pytest.mark.parametrize("key", [(0, 1), (0, 2), (1, 1), (1, 2)], ids=lambda k: f"{k[0]},{k[1]}")
def test_corrupted_generator_at_one_breaks_the_decomposition(key):
    """One entry added to a generator's nu = 1 column after the group relations
    passed: the character no longer decomposes as the lifts predict."""
    rep = GroupRepAtOne(ThetaModule(2, 2, MU))
    rep.check_group_relations()
    col = dict(rep._mats[key][0])
    col[0] = col.get(0, 0) + 1
    rep._mats[key][0] = tuple(sorted(col.items()))
    try:
        mults = decompose(rep.character(), 2, 2)
    except VerificationError:
        return
    assert mults != expected_decomposition(2, 2)
