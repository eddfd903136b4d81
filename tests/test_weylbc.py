"""Signed permutations: lengths, reduced words, cosets, transfer rules."""

import pytest

from thetahecke.weylbc import (
    CosetSpec,
    all_unsigned_perms,
    class_rep,
    conjugacy_classes,
    deodhar_transfer,
    distinguished_reps,
    flip_at,
    gen_perm,
    group_order,
    identity,
    inv,
    is_distinguished,
    is_right_descent,
    length,
    mul,
    reduced_word,
    swap_range,
    word_to_perm,
)

from oracles import (
    all_signed_perms,
    bfs_lengths,
    cycle_type,
    deodhar_transfer_by_product,
    distinguished_reps_bruteforce,
    left_descents,
    num_flips,
)


@pytest.mark.parametrize("l", [1, 2, 3])
def test_length_matches_bfs(l):
    oracle = bfs_lengths(l)
    assert len(oracle) == group_order(l) == 2**l * [1, 1, 2, 6][l]
    for w, d in oracle.items():
        assert length(w) == d


def test_longest_element_length():
    # longest element of the rank-3 signed group negates everything
    w0 = (-1, -2, -3)
    assert length(w0) == 9
    assert num_flips(w0) == 3


@pytest.mark.parametrize("l", [1, 2, 3, 4, 5])
def test_descents_match_lengths(l):
    """The two-entry descent test agrees with comparing lengths, on both sides."""
    for w in all_signed_perms(l):
        lw = length(w)
        lefts = left_descents(w)
        for g in range(1, l + 1):
            gp = gen_perm(g, l)
            assert is_right_descent(w, g) == (length(mul(w, gp)) < lw)
            assert (g in lefts) == (length(mul(gp, w)) < lw)


@pytest.mark.parametrize("l", [1, 2, 3, 4])
def test_reduced_words_multiply_back(l):
    for w in all_signed_perms(l):
        word = reduced_word(w)
        assert len(word) == length(w)
        assert word_to_perm(word, l) == w


def test_group_ops():
    a, b = (2, -1, 3), (-3, 1, 2)
    assert mul(a, inv(a)) == identity(3)
    assert mul(identity(3), b) == b
    # mul(a, b) applies b first
    ab = mul(a, b)
    assert ab == tuple(-a[abs(v) - 1] if v < 0 else a[v - 1] for v in b)


def test_special_elements():
    assert flip_at(2, 3) == (1, -2, 3)
    assert gen_perm(3, 3) == (1, 2, -3)  # flip sits at the last position
    assert swap_range(2, 3, 3) == word_to_perm([2], 3)
    assert swap_range(2, 4, 4) == word_to_perm([3, 2], 4)
    # swap_range(i, j, l) is the identity when i == j
    assert swap_range(2, 2, 4) == identity(4)
    assert swap_range(1, 3, 4) == word_to_perm([2, 1], 4)
    # explicit checks, so they hold under python -O too
    with pytest.raises(ValueError, match="no generator 0"):
        gen_perm(0, 3)
    with pytest.raises(ValueError, match="cannot compose"):
        mul((1, 2), (1, 2, 3))


@pytest.mark.parametrize(
    "kind,n", [("sym_block", n) for n in range(1, 5)] + [("mixed_block", n) for n in range(1, 5)]
)
def test_distinguished_reps_closed_form_equals_bruteforce(kind, n):
    for k in range(n + 1):
        spec = CosetSpec(kind, n, k)
        fast = distinguished_reps(spec)
        slow = distinguished_reps_bruteforce(spec)
        assert fast == slow
        assert all(is_distinguished(d, spec) for d in fast)


def test_coset_counts():
    # plain blocks: binomial(n, k); mixed blocks: 2^k n! / (k! (n-k)!)
    assert len(distinguished_reps(CosetSpec("sym_block", 4, 2))) == 6
    assert len(distinguished_reps(CosetSpec("mixed_block", 3, 2))) == 12
    assert len(distinguished_reps(CosetSpec("mixed_block", 3, 0))) == 1


@pytest.mark.parametrize(
    "kind,n,k", [("cyclic", 3, 1), ("sym_block", 3, 4), ("mixed_block", 3, -1), ("mixed_block", 0, 1)]
)
def test_coset_spec_refuses_a_bad_shape(kind, n, k):
    with pytest.raises(ValueError) as exc:
        CosetSpec(kind, n, k)
    assert str(exc.value) == f"no coset shape {kind} with n={n}, k={k}"


def test_coset_spec_is_a_read_only_cache_key():
    spec = CosetSpec("mixed_block", 3, 1)
    assert (spec.kind, spec.n, spec.k) == ("mixed_block", 3, 1)
    assert repr(spec) == "CosetSpec(kind='mixed_block', n=3, k=1)"
    assert spec.parabolic_gens() == [2, 3] and CosetSpec("sym_block", 3, 1).parabolic_gens() == [1]
    for field in ("kind", "n", "k", "other"):
        with pytest.raises(AttributeError):
            setattr(spec, field, 0)
    twin = CosetSpec("mixed_block", 3, 1)
    assert twin == spec and hash(twin) == hash(spec)
    assert twin != CosetSpec("sym_block", 3, 1) and twin != CosetSpec("mixed_block", 3, 2)
    # distinguished_reps is cached by its spec, so an equal spec finds the same table
    assert distinguished_reps(twin) is distinguished_reps(spec)


@pytest.mark.parametrize(
    "kind,n,k",
    [("sym_block", 4, 2), ("sym_block", 3, 1), ("mixed_block", 3, 1), ("mixed_block", 3, 2)]
    + [(kind, n, k) for kind in ("sym_block", "mixed_block") for n in (5, 6) for k in range(n + 1)],
)
def test_deodhar_transfer_cases(kind, n, k):
    """g*d is either a representative again or d times a subgroup generator.

    deodhar_transfer decides by Deodhar's lemma without testing coset
    membership, so this test is the oracle for its labels.
    """
    spec = CosetSpec(kind, n, k)
    reps = set(distinguished_reps(spec))
    gens = range(1, n) if kind == "sym_block" else range(1, n + 1)
    for d in reps:
        for g in gens:
            gp = gen_perm(g, n)
            out = deodhar_transfer(d, g, spec)
            if out[0] == "coset":
                _, nd, direction = out
                assert nd in reps
                assert nd == mul(gp, d)
                assert direction == (1 if length(nd) > length(d) else -1)
            else:
                _, t = out
                assert mul(gp, d) == mul(d, gen_perm(t, n))
                assert t in spec.parabolic_gens()


@pytest.mark.parametrize("n", range(1, 7))
def test_deodhar_transfer_matches_full_product(n):
    """Reading h from the positions s_g moves agrees with composing d^-1 s_g d
    and comparing it with every parabolic generator, for every representative
    of both coset kinds, every block size and every generator, the flip too."""
    seen = set()
    for kind in ("sym_block", "mixed_block"):
        for k in range(n + 1):
            spec = CosetSpec(kind, n, k)
            for d in distinguished_reps(spec):
                for g in range(1, n + 1):
                    got = deodhar_transfer(d, g, spec)
                    assert got == deodhar_transfer_by_product(d, g, spec), (spec, d, g)
                    seen.add(got[0] if got[0] == "transfer" else got[2])
    assert seen == {"transfer", -1, 1}


def test_cycle_type_and_classes():
    assert cycle_type((2, 1, 3)) == ((2, 1), ())
    assert cycle_type((-1, 2, 3)) == ((1, 1), (1,))
    assert cycle_type((2, -1,)) == ((), (2,))
    for l in range(1, 5):
        classes = conjugacy_classes(l)
        # class sizes partition the group
        assert sum(c["size"] for c in classes) == group_order(l)
        for c in classes:
            lam, mu = c["type"]
            w = class_rep(lam, mu, l)
            assert cycle_type(w) == (lam, mu)


def test_num_flips_counts_negatives():
    for l in range(1, 4):
        for w in all_signed_perms(l):
            assert num_flips(w) == sum(1 for v in w if v < 0)
    assert all(num_flips(w) == 0 for w in all_unsigned_perms(3))
