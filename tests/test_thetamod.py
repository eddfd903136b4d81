"""The graded bimodule: basis, generator columns, relation suite, the nu = 1 group pair."""

from fractions import Fraction

import pytest

from thetahecke.laurent import LaurentPoly, as_half
from thetahecke.thetamod import GroupRepAtOne, ThetaModule, grade_dim_formula
from thetahecke.weylbc import flip_at, gen_perm, identity

MU = Fraction(1, 2)


def nu(e, c=1):
    return LaurentPoly.nu_power(as_half(e), c)


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
    mod = ThetaModule(2, 3, MU)
    for p, idx in enumerate(mod.basis):
        assert mod.pos[idx] == p
    for k in range(mod.kmax + 1):
        lo, hi = mod.grade_range[k]
        assert all(mod.basis[p][0] == k for p in range(lo, hi))
        assert lo <= mod.unit_pos(k) < hi


# -- generator columns ------------------------------------------------------------


def test_rank_one_flip_column_frozen():
    """Hand-checked action of the flip on the bottom grade at (1, 1)."""
    mod = ThetaModule(1, 1, MU)
    e1 = identity(1)
    p_bottom = mod.pos[(0, e1, e1, ())]
    col = dict(mod.column((0, 1), p_bottom))
    want = {
        p_bottom: nu(-1, -1),
        mod.pos[(1, e1, e1, (1,))]: nu(-1, -1),
        mod.pos[(1, e1, flip_at(1, 1), (1,))]: nu(MU),
    }
    assert col == want


def test_bottom_grade_eigenvectors():
    """Plain and primed swaps fix the bottom grade with eigenvalue nu; the
    primed flip negates it."""
    for l, lp in [(2, 2), (3, 2), (2, 3)]:
        mod = ThetaModule(l, lp, MU)
        v = mod.basis_vec(mod.unit_pos(0))
        for i in range(1, l):
            assert mod.apply_gen((0, i), v) == {mod.unit_pos(0): nu(1)}
        for i in range(1, lp):
            assert mod.apply_gen((1, i), v) == {mod.unit_pos(0): nu(1)}
        assert mod.apply_gen((1, lp), v) == {mod.unit_pos(0): nu(0, -1)}


def test_apply_word_composes_columns():
    mod = ThetaModule(3, 2, MU)
    v = mod.apply_gen((0, 3), mod.basis_vec(mod.unit_pos(1)))
    lhs = mod.apply_word([(0, 1), (0, 2)], v)
    rhs = mod.apply_gen((0, 1), mod.apply_gen((0, 2), v))
    assert lhs == rhs
    lhs = mod.apply_word([(1, 1)], v)
    rhs = mod.apply_gen((1, 1), v)
    assert lhs == rhs


# -- relation suite ----------------------------------------------------------------


def test_suite_shape():
    assert len(ThetaModule(1, 1, MU).relation_suite()) == 3
    suite = ThetaModule(3, 3, MU).relation_suite()
    assert len(suite) == 21
    names = [chk["name"] for chk in suite]
    assert len(set(names)) == 21
    assert "quad_flip" in names and "cross_flip_prime_flip" in names


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


@pytest.mark.parametrize("delta", [nu(3), nu(0)], ids=["shifted_term", "constant_term"])
def test_corrupted_column_is_reported(delta):
    mod = ThetaModule(2, 2, MU)
    mod.materialize_columns()
    table = mod._cols[(0, 2)]
    p = mod.unit_pos(1)
    r, a = table[p][0]
    table[p] = ((r, a + delta),) + table[p][1:]
    rep = mod.verify_relations()
    assert not rep["ok"]
    bad = [r for r in rep["relations"] if not r["ok"]]
    assert bad
    assert set(bad[0]["failure"]) == {"column", "entry", "residual"}


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
    for g in range(1, 3):
        assert (rep.rep_left(gen_perm(g, 2)) == mats[(0, g)]).all()
    for g in range(1, 4):
        assert (rep.rep_right(gen_perm(g, 3)) == mats[(1, g)]).all()
    keys = set(mod.gen_keys())
    for chk in mod.relation_suite():
        used = [chk["gen"]] if chk["kind"] == "quad" else chk["lhs"] + chk["rhs"]
        assert set(used) <= keys


def test_character_is_mu_independent_at_one():
    a = GroupRepAtOne(ThetaModule(2, 1, Fraction(1, 2))).character()
    b = GroupRepAtOne(ThetaModule(2, 1, Fraction(-5, 2))).character()
    assert a == b
