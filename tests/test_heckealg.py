"""Generic signed Hecke algebra: products, inverses, reduced words."""

import random
from fractions import Fraction
from functools import lru_cache

import pytest

from thetahecke.heckealg import (
    HeckeElem,
    HeckeParams,
    basis_product,
    he_inv_basis,
    he_mul,
    word_terms,
)
from thetahecke.laurent import LaurentPoly
from thetahecke.weylbc import gen_perm, identity, length, mul, reduced_word

from oracles import all_signed_perms, num_flips, peel_reference, reduced_word_rightmost, scale_poly, word_product

MUS = [Fraction(1, 2), Fraction(-3, 2), Fraction(4, 2), Fraction(0, 2)]


def nu(e):
    return LaurentPoly.nu_power(e)


def _gen_quad_holds(params, g):
    t = word_product(params, [g])
    lhs = he_mul(params, t, t)
    par = nu(params.gen_exponent(g))
    rhs = scale_poly(t, par - LaurentPoly.one()) + scale_poly(HeckeElem.unit(params.rank), par)
    return lhs == rhs


@pytest.mark.parametrize("mu", MUS)
@pytest.mark.parametrize("l", [1, 2, 3])
def test_quadratic_relations(l, mu):
    params = HeckeParams.signed(l, mu)
    for g in range(1, l + 1):
        assert _gen_quad_holds(params, g)
    # an explicit check, so it holds under python -O too
    for g in (0, l + 1):
        with pytest.raises(ValueError, match=f"no generator {g}"):
            params.gen_exponent(g)
        with pytest.raises(ValueError, match=f"no generator {g}"):
            word_product(params, [1, g])


def _assert_peels_agree(l, mu, gens):
    params = HeckeParams.signed(l, Fraction(mu))
    assert word_terms(params, gens) == peel_reference(params, identity(l), gens), (l, mu, gens)


# flip_numer 0 (the flip's parameter is 1), odd and even, equal to the swaps'
# 2, on both sides of the capped stride, and far past it on both signs
PEEL_MUS = ["0", "1/2", "-1/2", "1", "-1", "3/2", "-3/2", "2", "19/2", "21/2", "1001/2", "-1001/2"]


def test_word_terms_match_the_dict_peel():
    """The packed peel equals the dict peel, zeros dropped, on words of 0 to
    50 letters at ranks 1 to 5."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=40, deadline=None, derandomize=True)
    @hypothesis.given(data=st.data(), l=st.integers(1, 5), n=st.integers(0, 50), mu=st.sampled_from(PEEL_MUS))
    def check(data, l, n, mu):
        # the length is drawn first, since hypothesis draws mostly short lists
        _assert_peels_agree(l, mu, data.draw(st.lists(st.integers(1, l), min_size=n, max_size=n)))

    check()


@pytest.mark.parametrize(
    "l, mu, gens",
    [
        # past the reduced prefix [1], one and two swap letters are left at
        # flip_numer 2 and 4, the largest at which the flip's exponents meet the swaps'
        (2, "1", [1, 1, 2, 2]),
        (2, "2", [1, 1, 1, 2, 2]),
        # the flip's stride capped: 12 swap letters left, flip_numer 21
        (3, "21/2", [3, 3, 1, 2, 1, 3, 2, 3, 1, 2, 3] * 2),
        # capped with a right shift per flip descent; 44 letters left take
        # two 64-bit limbs a digit
        (2, "-1001/2", [2, 2, 1] * 15),
        # the flip's parameter 1, 47 letters left
        (3, "0", [1, 1, 3, 2] * 12),
    ],
)
def test_word_terms_match_the_dict_peel_in_each_packing(l, mu, gens):
    _assert_peels_agree(l, mu, gens)


def test_word_terms_past_64_bit_coefficients():
    """160 letters leave coefficients past 2^64, which the digits must hold."""
    params = HeckeParams.signed(2, Fraction(1))
    gens = [1, 1, 2, 2] * 40
    got = word_terms(params, gens)
    assert max(abs(c) for poly in got.values() for c in poly.values()) >= 2**64
    assert got == peel_reference(params, identity(2), gens)


@pytest.mark.parametrize("gens", [[0], [1, 0], [1, 1, 0], [1, 1, 2, 2, 9]])
def test_word_terms_rejects_a_bad_generator(gens):
    """A bad letter is refused inside the reduced prefix and after a
    descent alike."""
    params = HeckeParams.signed(2, Fraction(1, 2))
    with pytest.raises(ValueError, match=f"no generator {gens[-1]} at rank 2"):
        word_terms(params, gens)


@pytest.mark.parametrize("l", [2, 3, 4])
def test_braid_relations(l):
    params = HeckeParams.signed(l, Fraction(1, 2))

    def word(gs):
        out = HeckeElem.unit(l)
        for g in gs:
            out = he_mul(params, out, word_product(params, [g]))
        return out

    for i in range(1, l - 1):
        assert word([i, i + 1, i]) == word([i + 1, i, i + 1])
    for i in range(1, l - 1):
        for j in range(i + 2, l):
            assert word([i, j]) == word([j, i])
    # flip braids with the last swap in length four, commutes with the rest
    assert word([l, l - 1, l, l - 1]) == word([l - 1, l, l - 1, l])
    for i in range(1, l - 1):
        assert word([l, i]) == word([i, l])


def test_basis_product_matches_length_additivity():
    params = HeckeParams.signed(2, Fraction(1, 2))
    for u in all_signed_perms(2):
        for w in all_signed_perms(2):
            prod = basis_product(params, u, w)
            if length(mul(u, w)) == length(u) + length(w):
                assert prod == HeckeElem.basis(mul(u, w))


@lru_cache(maxsize=None)
def _reference_times_gen(params, w, g):
    """T_w * T_g on LaurentPoly coefficients, the descent decided by lengths."""
    wg = mul(w, gen_perm(g, params.rank))
    if length(wg) > length(w):
        return ((wg, LaurentPoly.one()),)
    e = params.gen_exponent(g)
    return ((wg, nu(e)), (w, nu(e) - LaurentPoly.one()))


def _reference_basis_product(params, u, w):
    cur = {u: LaurentPoly.one()}
    for g in reduced_word_rightmost(w):
        nxt = {}
        for x, c in cur.items():
            for y, p in _reference_times_gen(params, x, g):
                nxt[y] = nxt.get(y, LaurentPoly.zero()) + c * p
        cur = nxt
    return HeckeElem(cur)


@pytest.mark.parametrize("mu", [Fraction(1, 2), Fraction(-3, 2), Fraction(0, 2)])
def test_basis_product_matches_reference(mu):
    params = HeckeParams.signed(3, mu)
    perms = all_signed_perms(3)
    for u in perms:
        for w in perms:
            assert basis_product(params, u, w) == _reference_basis_product(params, u, w)


def _dense_elem(rng, perms, size):
    return HeckeElem({
        w: LaurentPoly({rng.randrange(-4, 5): rng.choice((-2, -1, 1, 3)) for _ in range(2)})
        for w in rng.sample(perms, size)
    })


@pytest.mark.parametrize("mu", [Fraction(1, 2), Fraction(-3, 2), Fraction(0, 2)])
def test_he_mul_of_dense_elements_is_bilinear(mu):
    """he_mul peels each term of a through each term of b: the result is the
    sum of the basis products, and a's coefficients are left as they were;
    at mu = 0 the flip's descents cancel."""
    params = HeckeParams.signed(3, mu)
    rng = random.Random(5)
    perms = all_signed_perms(3)
    a, b = _dense_elem(rng, perms, 20), _dense_elem(rng, perms, 12)
    a_before = {u: dict(ca.terms) for u, ca in a.terms.items()}
    want = HeckeElem()
    for u, ca in a.terms.items():
        for w, cb in b.terms.items():
            want = want + scale_poly(basis_product(params, u, w), ca * cb)
    assert he_mul(params, a, b) == want
    assert {u: ca.terms for u, ca in a.terms.items()} == a_before


@pytest.mark.parametrize("mu", MUS)
def test_inverses(mu):
    params = HeckeParams.signed(3, mu)
    rng = random.Random(3)
    sample = rng.sample(all_signed_perms(3), 12)
    for w in sample:
        a = he_inv_basis(params, w)
        assert he_mul(params, HeckeElem.basis(w), a) == HeckeElem.unit(3)
        assert he_mul(params, a, HeckeElem.basis(w)) == HeckeElem.unit(3)


def test_contract_example_flip_square():
    # rank 1, mu = 1/2: T_t * T_t = (nu^(1/2) - 1) T_t + nu^(1/2) T_e
    params = HeckeParams.signed(1, Fraction(1, 2))
    t = word_product(params, [1])
    prod = he_mul(params, t, t)
    expect = scale_poly(t, nu(Fraction(1, 2)) - LaurentPoly.one()) + scale_poly(
        HeckeElem.unit(1), nu(Fraction(1, 2))
    )
    assert prod == expect


def test_flip_count_is_word_independent():
    for w in all_signed_perms(3):
        first = reduced_word(w)
        second = reduced_word_rightmost(w)
        assert first.count(3) == second.count(3) == num_flips(w)
