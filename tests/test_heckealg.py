"""Generic signed Hecke algebra: products, inverses, characters, twist."""

import random
from functools import lru_cache

import pytest

from thetahecke.heckealg import (
    HeckeElem,
    HeckeParams,
    basis_product,
    flip_twist_iso,
    gen_elem,
    he_inv_basis,
    he_mul,
    he_specialize_nu1,
    index_character,
    sign_character,
)
from thetahecke.laurent import LaurentPoly, half
from thetahecke.weylbc import (
    all_signed_perms,
    gen_perm,
    identity,
    length,
    mul,
    reduced_word_rightmost,
)

MUS = [half(1), half(-3), half(4), half(0)]


def nu(e):
    return LaurentPoly.nu_power(e)


def _gen_quad_holds(params, g):
    t = gen_elem(params, g)
    lhs = he_mul(params, t, t)
    par = nu(params.gen_exponent(g))
    rhs = t.scale_poly(par - LaurentPoly.one()) + HeckeElem.unit(params.rank).scale_poly(par)
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


@pytest.mark.parametrize("l", [2, 3, 4])
def test_braid_relations(l):
    params = HeckeParams.signed(l, half(1))

    def word(gs):
        out = HeckeElem.unit(l)
        for g in gs:
            out = he_mul(params, out, gen_elem(params, g))
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
    params = HeckeParams.signed(2, half(1))
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


@pytest.mark.parametrize("mu", [half(1), half(-3), half(0)])
def test_basis_product_matches_reference(mu):
    params = HeckeParams.signed(3, mu)
    perms = all_signed_perms(3)
    for u in perms:
        for w in perms:
            assert basis_product(params, u, w) == _reference_basis_product(params, u, w)


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
    params = HeckeParams.signed(1, half(1))
    t = gen_elem(params, 1)
    prod = he_mul(params, t, t)
    expect = t.scale_poly(nu(half(1)) - LaurentPoly.one()) + HeckeElem.unit(1).scale_poly(
        nu(half(1))
    )
    assert prod == expect


@pytest.mark.parametrize("mu", [half(1), half(-3), half(2)])
def test_flip_twist_is_an_algebra_map(mu):
    """The twist maps the -mu algebra to the mu algebra and respects products."""
    src = HeckeParams.signed(2, -mu)
    dst = HeckeParams.signed(2, mu)
    rng = random.Random(5)
    perms = all_signed_perms(2)
    for _ in range(30):
        u, w = rng.choice(perms), rng.choice(perms)
        a, b = HeckeElem.basis(u), HeckeElem.basis(w)
        lhs = flip_twist_iso(he_mul(src, a, b), mu)
        rhs = he_mul(dst, flip_twist_iso(a, mu), flip_twist_iso(b, mu))
        assert lhs == rhs


def test_flip_twist_round_trip_and_flip_image():
    mu = half(3)
    t = HeckeElem.basis(gen_perm(2, 2))
    # twist image of the flip carries -nu^(-mu)
    img = flip_twist_iso(t, mu)
    assert img == t.scale_poly(LaurentPoly.nu_power(-half(3)).scale(-1))
    # composing with the reverse twist restores every basis element
    for w in all_signed_perms(2):
        a = HeckeElem.basis(w)
        assert flip_twist_iso(flip_twist_iso(a, mu), -mu) == a


def test_flip_count_is_word_independent():
    from thetahecke.weylbc import num_flips, reduced_word, reduced_word_rightmost

    for w in all_signed_perms(3):
        first = reduced_word(w)
        second = reduced_word_rightmost(w)
        assert first.count(3) == second.count(3) == num_flips(w)


@pytest.mark.parametrize("mu", MUS)
def test_characters_are_multiplicative(mu):
    params = HeckeParams.signed(2, mu)
    rng = random.Random(11)
    perms = all_signed_perms(2)
    for _ in range(40):
        a = HeckeElem.basis(rng.choice(perms))
        b = HeckeElem.basis(rng.choice(perms))
        ab = he_mul(params, a, b)
        assert sign_character(params, ab) == sign_character(params, a) * sign_character(params, b)
        assert index_character(params, ab) == index_character(params, a) * index_character(
            params, b
        )


def test_character_values_on_generators():
    params = HeckeParams.signed(2, half(3))
    s, t = gen_elem(params, 1), gen_elem(params, 2)
    # the signature sends swaps to nu and the flip to -1
    assert sign_character(params, s) == nu(1)
    assert sign_character(params, t) == LaurentPoly.const(-1)
    assert index_character(params, s) == nu(1)
    assert index_character(params, t) == nu(half(3))
    # contract example: the index of the flip squared is nu^(2 mu)
    assert index_character(params, he_mul(params, t, t)) == nu(3)


def test_specialize_nu1_gives_group_algebra():
    params = HeckeParams.signed(2, half(1))
    t = gen_elem(params, 2)
    sq = he_mul(params, t, t)
    assert he_specialize_nu1(sq) == {identity(2): 1}
    s = gen_elem(params, 1)
    st = he_mul(params, s, t)
    assert he_specialize_nu1(st) == {mul(gen_perm(1, 2), gen_perm(2, 2)): 1}
