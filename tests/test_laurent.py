"""Ground-ring arithmetic: exact Laurent polynomials in nu**(1/2)."""

import random
import sys
import time
from fractions import Fraction

import pytest

from thetahecke.heckealg import HeckeParams
from thetahecke.laurent import LaurentPoly, add_product, add_shifted, as_half, format_half
from thetahecke.thetamod import ThetaModule

from oracles import poly_from_json_obj, poly_to_json_obj


def rand_poly(rng, terms=4, espan=6, cmax=9):
    return LaurentPoly(
        {rng.randint(-espan, espan): rng.randint(-cmax, cmax) for _ in range(terms)}
    )


def test_half_coercion():
    assert as_half(Fraction(3, 2)) == Fraction(3, 2)
    assert as_half("3/2") == Fraction(3, 2)
    assert as_half(-2) == Fraction(-2)
    assert format_half(Fraction(4, 2)) == "2"
    assert format_half(Fraction(-3, 2)) == "-3/2"
    with pytest.raises(ValueError):
        as_half("1/3")
    with pytest.raises(ValueError, match="zero denominator"):
        as_half("1/0")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit")
def test_huge_exponent_is_refused_by_the_library():
    """as_half refuses a decimal exponent past the digits Python converts
    before Fraction builds its power of ten, so the library callers that take
    mu as text refuse 1e10000000 at once; a shorter exponent is still read."""
    for build in (as_half, lambda mu: ThetaModule(1, 1, mu), lambda mu: HeckeParams.signed(2, mu)):
        t0 = time.perf_counter()
        with pytest.raises(OverflowError, match="1e10000000 has too many digits to print"):
            build("1e10000000")
        assert time.perf_counter() - t0 < 1
    assert as_half("1e3") == 1000 and as_half("-15e-1") == Fraction(-3, 2)


def test_half_power_squares_to_nu():
    v = LaurentPoly.nu_power(Fraction(1, 2))
    assert v * v == LaurentPoly.nu_power(1)
    assert v * LaurentPoly.nu_power(Fraction(-1, 2)) == LaurentPoly.one()


def test_ring_axioms_on_random_elements():
    rng = random.Random(7)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) * c == a * c + b * c
        assert (a * b) * c == a * (b * c)
        assert a - a == LaurentPoly.zero()
        assert a * LaurentPoly.one() == a


def test_specialize_nu1_is_coefficient_sum():
    p = LaurentPoly({-2: 2, 3: 1})  # 2*nu^-1 + nu^(3/2)
    assert p.specialize_nu1() == 3


@pytest.mark.parametrize("seed", [2, 3, 4, 5, 9])
def test_specialization_is_ring_hom(seed):
    rng = random.Random(seed)
    for _ in range(60):
        a, b = rand_poly(rng), rand_poly(rng)
        assert (a * b).specialize_nu1() == a.specialize_nu1() * b.specialize_nu1()
        assert (a + b).specialize_nu1() == a.specialize_nu1() + b.specialize_nu1()


def test_bad_specializations_raise():
    """An explicit check, so it holds under python -O too."""
    with pytest.raises(TypeError, match="int exponents"):
        LaurentPoly({Fraction(1, 2): 1})


def test_json_round_trip_sorted_keys():
    p = LaurentPoly({3: 1, -2: 2})
    obj = poly_to_json_obj(p)
    assert list(obj) == ["-2", "3"]
    assert poly_from_json_obj(obj) == p


def test_zero_terms_dropped():
    assert LaurentPoly({2: 0}) == LaurentPoly.zero()
    assert not LaurentPoly.zero()
    assert (LaurentPoly.one() - LaurentPoly.one()).is_zero()


def test_zero_product_on_an_absent_term_is_a_no_op():
    """A raw sum may hold a stored zero; adding it, or anything times zero,
    leaves the target as it is, and a sum that cancels is still dropped."""
    out: dict = {}
    add_shifted(out, {3: 0}, 0)
    assert out == {}
    out = {5: 2}
    add_product(out, {3: 0, 4: 1}, {1: 2})
    assert out == {5: 4}
    add_shifted(out, {5: 2, 1: 0}, 0, -2)
    assert out == {}
