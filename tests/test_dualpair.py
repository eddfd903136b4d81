"""Tower configurations, first occurrence, conservation, the field oracle."""

from fractions import Fraction

import pytest

from thetahecke.bipartition import bipartitions
from thetahecke.laurent import format_half
from thetahecke.dualpair import (
    CASES,
    TowerConfig,
    conservation_check,
    first_occurrence,
    get_case,
    mu_of,
    mu_range_check,
    mu_sigma,
)

from oracles import (
    abundance_witness,
    dimension_grid,
    lambda_exponents,
    lusztig_unipotent,
    relevance_closure,
    swapped,
    unitary2_signed_fixed_space_sum,
)

SAMPLE_MU = {"A": Fraction(1, 2), "B": 1, "C": -1, "Ct": 0, "D": 2}


def in_range_values(tag, bound):
    num = Fraction(1, 2) if tag == "A" else 1
    vals = set()
    x = -bound
    while x <= bound:
        if mu_range_check(tag, x):
            vals.add(Fraction(x))
        x += num
    return vals


# -- cases and parameter ranges ----------------------------------------------------


def test_case_table():
    assert set(CASES) == {"A", "B", "C", "Ct", "D"}
    assert all(c.delta + c.delta_prime == 2 for c in CASES.values())
    assert get_case("B").parity0 == 1
    with pytest.raises(ValueError):
        get_case("Z")


def test_mu_ranges():
    assert mu_range_check("A", Fraction(1, 2)) and mu_range_check("A", Fraction(-7, 2))
    assert not mu_range_check("A", 1)
    for tag in ("B", "C"):
        assert mu_range_check(tag, 3) and mu_range_check(tag, -1)
        assert not mu_range_check(tag, 0) and not mu_range_check(tag, Fraction(1, 2))
    for tag in ("Ct", "D"):
        assert mu_range_check(tag, 0) and mu_range_check(tag, -4)
        assert not mu_range_check(tag, 1) and not mu_range_check(tag, Fraction(1, 2))


def test_config_validation():
    cfg = TowerConfig("A", 2, 3)
    assert cfg.dimVt0 == 2 * 2 + 1 - 3
    with pytest.raises(ValueError):
        TowerConfig("B", 2, 2)  # dimV0 must be odd
    with pytest.raises(ValueError):
        TowerConfig("B", 1, 1)  # dimVp0 must be even
    with pytest.raises(ValueError):
        TowerConfig("A", 0, 5)  # companion start would be negative
    with pytest.raises(ValueError):
        TowerConfig("A", -1, 0)
    with pytest.raises(ValueError):
        TowerConfig("Ct", 2, 3)  # chi(-1) is required here
    TowerConfig("Ct", 2, 3, chi_minus_one=-1)
    with pytest.raises(ValueError):
        TowerConfig("D", 2, 2, chi_minus_one=0)


def test_swapped_negates_mu():
    for tag in CASES:
        cfg = abundance_witness(SAMPLE_MU[tag], tag)
        sw = swapped(cfg)
        assert sw.dimVp0 == cfg.dimVt0 and sw.dimVt0 == cfg.dimVp0
        assert mu_of(sw) == -mu_of(cfg)
        assert swapped(sw).dimVp0 == cfg.dimVp0


def test_mu_examples():
    assert mu_of(TowerConfig("A", 2, 3)) == Fraction(1, 2)
    assert mu_of(TowerConfig("B", 1, 2)) == 1
    assert mu_of(TowerConfig("C", 2, 4)) == 1
    assert mu_of(TowerConfig("Ct", 2, 3, chi_minus_one=1)) == 0
    assert mu_of(TowerConfig("D", 2, 4)) == 2
    assert mu_sigma(5, 2) == Fraction(3, 2)
    assert format_half(Fraction(-3, 2)) == "-3/2" and format_half(Fraction(4, 2)) == "2"


def test_dimension_grid_respects_parity():
    for cfg in dimension_grid("B", 6):
        assert cfg.dimV0 % 2 == 1 and cfg.dimVp0 % 2 == 0
    assert len(dimension_grid("A", 3)) > 0


# -- scalar normalization ------------------------------------------------------------


def test_lambda_exponent_identities():
    for tag in CASES:
        for cfg in dimension_grid(tag, 5):
            lam = lambda_exponents(cfg)
            mu = mu_of(cfg)
            assert lam["ratio"] == {"sign": -1, "q_exponent": mu}
            assert lam["product"]["sign"] == -cfg.chi_minus_one
            d = Fraction(cfg.case.delta, 2)
            assert lam["product"]["q_exponent"] == cfg.dimV0 + d
            lo, hi = lam["normalized_eigenvalues"]
            assert lo == {"sign": -1, "q_exponent": Fraction(0)}
            assert hi == {"sign": 1, "q_exponent": mu}


# -- first occurrence and conservation -------------------------------------------------


def test_first_occurrence_frozen_example():
    cfg = TowerConfig("A", 0, 1)
    occ = first_occurrence((1,), (), 1, cfg)
    assert occ == {"n": 3, "n_tilde": 0, "c": 1}
    occ = first_occurrence((), (1,), 1, cfg)
    assert occ == {"n": 1, "n_tilde": 2, "c": 1}


def test_first_occurrence_rejects_size_mismatch():
    with pytest.raises(ValueError):
        first_occurrence((2,), (), 1, TowerConfig("A", 0, 1))


def test_conservation_all_cases():
    for tag in CASES:
        for cfg in dimension_grid(tag, 3):
            for l in range(4):
                for alpha, beta in bipartitions(l):
                    rep = conservation_check(alpha, beta, l, cfg)
                    assert rep["residual_double_c"] == 0
                    assert rep["residual_single_c"] == -rep["c"]
                    assert rep["rhs"] == 2 * (cfg.dimV0 + 2 * l) + cfg.case.delta


def test_mu_sigma_from_occurrence_pair():
    # reading the parameter back from the two first occurrences of the
    # trivial label reproduces the configured parameter
    for tag in CASES:
        cfg = abundance_witness(SAMPLE_MU[tag], tag)
        occ = first_occurrence((), (), 0, cfg)
        assert mu_sigma(occ["n"], occ["n_tilde"]) == mu_of(cfg)


# -- relevance and abundance ------------------------------------------------------------


def test_relevance_closure_small():
    got = relevance_closure(Fraction(1, 2), "A", bound=2)
    assert got == {Fraction(1, 2), Fraction(-1, 2), Fraction(3, 2), Fraction(-3, 2)}
    with pytest.raises(ValueError):
        relevance_closure(1, "A")


@pytest.mark.parametrize("check", [relevance_closure, abundance_witness])
def test_non_half_integer_mu_is_named_as_such(check):
    """1/3 is no half-integer; it must not be reported as the in-range 1/2."""
    with pytest.raises(ValueError, match="not a half-integer") as exc:
        check(Fraction(1, 3), "A")
    assert "1/2" not in str(exc.value)
    with pytest.raises(ValueError, match="mu=3 out of range for case A"):
        check(3, "A")


def test_relevance_closure_fills_parity_class():
    for tag in CASES:
        got = relevance_closure(SAMPLE_MU[tag], tag, bound=6)
        assert got == in_range_values(tag, 6)


def test_abundance_witnesses_minimal():
    for tag in CASES:
        for mu in sorted(in_range_values(tag, 4)):
            wit = abundance_witness(mu, tag)
            assert mu_of(wit) == mu
            peers = [cfg for cfg in dimension_grid(tag, 12) if mu_of(cfg) == mu]
            assert peers
            assert all(
                cfg.dimV0 >= wit.dimV0 and cfg.dimVp0 >= wit.dimVp0 for cfg in peers
            )
    with pytest.raises(ValueError):
        abundance_witness(Fraction(1, 2), "B")


# -- unipotent tower ----------------------------------------------------------------------


def test_lusztig_unipotent():
    assert lusztig_unipotent(2) == {
        "dimV": 3,
        "first_occ_low": 1,
        "first_occ_high": 6,
        "mu": Fraction(5, 2),
    }
    for m in range(7):
        rep = lusztig_unipotent(m)
        assert rep["first_occ_low"] + rep["first_occ_high"] == 2 * rep["dimV"] + 1
        assert rep["mu"] == Fraction(2 * m + 1, 2)
    with pytest.raises(ValueError):
        lusztig_unipotent(-1)


# -- brute-force oracle ---------------------------------------------------------------------


def test_unitary2_oracle_vanishes():
    assert unitary2_signed_fixed_space_sum() == 0
