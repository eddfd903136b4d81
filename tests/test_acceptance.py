"""Acceptance suite: every shipped guarantee, one test and one printed line each.

Every check here is exact (integer or Laurent-polynomial equality); the only
tolerances are the stated runtime targets, asserted where they are part of
the guarantee.
"""

import functools
import json
import subprocess
import sys
import time
from fractions import Fraction

from thetahecke.bipartition import (
    bipartitions,
    decompose,
    expected_decomposition,
    is_multiplicity_free,
    pieri_add,
    pieri_remove,
    r1,
    signed_centralizer,
    signed_class_types,
    theta_lift,
    wl_char,
    wl_char_table,
)
from thetahecke.dualpair import CASES, conservation_check, mu_sigma
from thetahecke.heckealg import HeckeElem, HeckeParams, he_mul
from thetahecke.laurent import LaurentPoly
from thetahecke.thetamod import GroupRepAtOne, ThetaModule, grade_dim_formula
from thetahecke.weylbc import partitions

from oracles import (
    dimension_grid,
    eps_twist,
    expected_module_character,
    hecke_from_json_obj,
    hecke_to_json_obj,
    lusztig_unipotent,
    scale_poly,
    sym_centralizer,
    unitary2_signed_fixed_space_sum,
    word_product,
    wl_inner,
)


def criterion(n, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"CRITERION {n:2d} [{label}]: FAIL", flush=True)
                raise
            print(
                f"CRITERION {n:2d} [{label}]: PASS ({time.perf_counter() - t0:.1f}s)",
                flush=True,
            )

        return wrapper

    return deco


HALF = Fraction(1, 2)
MU_BY_CASE = {
    "A": [HALF, -HALF, 3 * HALF, -3 * HALF],
    "B": [1, -1, 3, -3],
    "C": [1, -1, 3, -3],
    "Ct": [0, 2, -2, 4],
    "D": [0, 2, -2, -4],
}


@criterion(1, "Hecke quadratic and braid relations, rank <= 4, 8 parameters")
def test_criterion_01_hecke_relations():
    t0 = time.perf_counter()
    mus = [-2, Fraction(-3, 2), -1, 0, HALF, 1, Fraction(3, 2), 2]
    for l in range(1, 5):
        for mu in mus:
            params = HeckeParams.signed(l, mu)

            def word(gs):
                out = HeckeElem.unit(l)
                for g in gs:
                    out = he_mul(params, out, word_product(params, [g]))
                return out

            for g in range(1, l + 1):
                t = word_product(params, [g])
                par = LaurentPoly.nu_power(params.gen_exponent(g))
                rhs = scale_poly(t, par - LaurentPoly.one()) + scale_poly(HeckeElem.unit(l), par)
                assert he_mul(params, t, t) == rhs, (l, mu, g)
            for i in range(1, l - 1):
                assert word([i, i + 1, i]) == word([i + 1, i, i + 1]), (l, mu, i)
                for j in range(i + 2, l):
                    assert word([i, j]) == word([j, i]), (l, mu, i, j)
            if l >= 2:
                assert word([l, l - 1, l, l - 1]) == word([l - 1, l, l - 1, l]), (l, mu)
                for i in range(1, l - 1):
                    assert word([l, i]) == word([i, l]), (l, mu, i)
    assert time.perf_counter() - t0 < 60


@criterion(2, "module relation suite, 7 shapes x 13 parameters")
def test_criterion_02_module_relations():
    shapes = [(1, 1), (1, 2), (2, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
    mus = sorted({Fraction(m) for vals in MU_BY_CASE.values() for m in vals})
    assert len(mus) == 13
    t33 = 0.0
    for l, lp in shapes:
        for mu in mus:
            t0 = time.perf_counter()
            rep = ThetaModule(l, lp, mu).verify_relations()
            if (l, lp) == (3, 3):
                t33 += time.perf_counter() - t0
            assert rep["ok"], (l, lp, mu, [r["name"] for r in rep["relations"] if not r["ok"]])
            names = {r["name"] for r in rep["relations"]}
            assert "quad_flip" in names and "cross_flip_prime_flip" in names
            if l >= 2:
                assert "braid_flip" in names
            for i in range(1, l - 1):
                assert f"comm_flip_swap_{i}" in names
    assert ThetaModule(3, 3, HALF).dim == 139
    assert t33 < 600


@criterion(3, "per-grade dimension formula, ranks <= 5")
def test_criterion_03_dimension_identity():
    for l in range(6):
        for lp in range(6):
            mod = ThetaModule(l, lp, HALF)
            assert mod.grade_dims() == [
                grade_dim_formula(l, lp, k) for k in range(min(l, lp) + 1)
            ]


# every shape with both ranks at most 3, and (4, 4)
SHAPES_AT_ONE = [(l, lp) for l in range(4) for lp in range(4)] + [(4, 4)]


@functools.lru_cache(maxsize=None)
def character_at_one(l, lp):
    """The nu = 1 character, taken once its group relations hold; shared by
    criteria 4 and 5."""
    rep = GroupRepAtOne(ThetaModule(l, lp, HALF))
    rep.check_group_relations()
    return rep.character()


@criterion(4, "specialized character equals induced sum, ranks <= (3,3) and (4,4)")
def test_criterion_04_character_at_one():
    for l, lp in SHAPES_AT_ONE:
        char = character_at_one(l, lp)
        assert char == expected_module_character(l, lp), (l, lp)
        assert decompose(char, l, lp) == expected_decomposition(l, lp), (l, lp)


@criterion(5, "module multiplicities equal lift coefficients, ranks <= (3,3) and (4,4)")
def test_criterion_05_lift_consistency():
    for l, lp in SHAPES_AT_ONE:
        mults = decompose(character_at_one(l, lp), l, lp)
        for alpha, beta in bipartitions(l):
            lift = theta_lift(alpha, beta, l, lp)
            for target in bipartitions(lp):
                got = mults.get(((alpha, beta), target), 0)
                assert got == lift.get(target, 0), (l, lp, alpha, beta, target)


@criterion(6, "lifts are multiplicity-free, ranks <= 6")
def test_criterion_06_multiplicity_free():
    count = 0
    for l in range(7):
        for lp in range(7):
            for alpha, beta in bipartitions(l):
                lift = theta_lift(alpha, beta, l, lp)
                assert is_multiplicity_free(lift), (alpha, beta, l, lp)
                count += 1
    assert count == 7 * sum(len(bipartitions(l)) for l in range(7))


@criterion(7, "conservation identity on exhaustive grids; rank-2 unitary oracle")
def test_criterion_07_conservation():
    checked = 0
    for tag in CASES:
        for cfg in dimension_grid(tag, 4):
            for l in range(7):
                for alpha, beta in bipartitions(l):
                    rep = conservation_check(alpha, beta, l, cfg)
                    assert rep["residual_double_c"] == 0, (tag, cfg, alpha, beta)
                    assert rep["residual_single_c"] == -rep["c"]
                    checked += 1
    assert checked > 0
    assert unitary2_signed_fixed_space_sum() == 0


@criterion(8, "unipotent tower data, m <= 6; lift normalization example")
def test_criterion_08_unipotent():
    for m in range(7):
        rep = lusztig_unipotent(m)
        assert rep["dimV"] == m * (m + 1) // 2
        assert rep["first_occ_low"] == (m - 1) * m // 2
        assert rep["first_occ_high"] == (m + 1) * (m + 2) // 2
        assert rep["mu"] == m + HALF
        assert mu_sigma(rep["first_occ_high"], rep["first_occ_low"]) == m + HALF
    assert lusztig_unipotent(1) == {
        "dimV": 1,
        "first_occ_low": 0,
        "first_occ_high": 3,
        "mu": Fraction(3, 2),
    }
    lift = theta_lift((), (1,), 1, 1)
    # the Aubert-Michel-Rouquier/Pan lift is the theta lift twisted by eps
    assert eps_twist(lift) == {(bp, ap): m for (ap, bp), m in lift.items()}
    assert eps_twist(theta_lift((1,), (), 1, 0)) == {}


@criterion(9, "combinatorial oracles: strips, characters, branching")
def test_criterion_09_combinatorial_oracles():
    # strip addition and removal are adjoint
    for n in range(7):
        for lam in partitions(n):
            for i in range(7):
                for mu in partitions(n + i):
                    assert (mu in pieri_add(lam, i)) == (lam in pieri_remove(mu, i))
    # largest removable strip is the first part
    for n in range(11):
        for lam in partitions(n):
            assert r1(lam) == (lam[0] if lam else 0)
    # signed-group character tables are orthonormal
    for m in range(1, 5):
        table = wl_char_table(m)
        for a in table:
            for b in table:
                assert wl_inner(table[a], table[b], m) == (1 if a == b else 0)
    # inducing the trivial character from the plain subgroup
    for d in range(1, 5):
        for cls in signed_class_types(d):
            lam, neg = cls
            induced = (
                Fraction(signed_centralizer(cls), sym_centralizer(lam)) if neg == () else 0
            )
            want = sum(
                wl_char(((a,) if a else (), (d - a,) if d - a else ()), cls)
                for a in range(d + 1)
            )
            assert induced == want, (d, cls)


@criterion(10, "CLI determinism and JSON round-trips")
def test_criterion_10_cli_determinism():
    invocations = [
        ("module-verify", "--l", "2", "--lprime", "2", "--mu", "-3/2"),
        ("theta-lift", "--alpha", "[]", "--beta", "[1]", "--l", "1", "--lprime", "1"),
        ("hecke-mul", "--l", "2", "--mu", "-3/2", "--a", "s1,t", "--b", "t,s1"),
        ("first-occurrence", "--alpha", "[1]", "--beta", "[]", "--l", "1",
         "--case", "A", "--dimV0", "0", "--dimVp0", "1"),
    ]
    for argv in invocations:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "thetahecke.cli", *argv],
                capture_output=True,
                check=True,
            ).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1], argv
        obj = json.loads(runs[0])
        assert (json.dumps(obj, indent=2) + "\n").encode() == runs[0]
    out = subprocess.run(
        [sys.executable, "-m", "thetahecke.cli",
         "hecke-mul", "--l", "2", "--mu", "-3/2", "--a", "s1,t", "--b", "t,s1"],
        capture_output=True,
        check=True,
    ).stdout
    prod = hecke_from_json_obj(json.loads(out)["product"])
    assert hecke_to_json_obj(prod) == json.loads(out)["product"]
