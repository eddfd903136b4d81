"""Partition combinatorics, characters of both group families, lifts."""

from collections import Counter
from fractions import Fraction

import pytest

from thetahecke import VerificationError, bipartition
from thetahecke.bipartition import (
    bipartitions,
    check_partition,
    decompose,
    expected_decomposition,
    is_multiplicity_free,
    lift_size,
    pieri_add,
    pieri_remove,
    r1,
    signed_centralizer,
    signed_class_types,
    sn_char,
    theta_lift,
    vs_add,
    wl_char,
    wl_char_table,
)
from thetahecke.weylbc import conjugacy_classes, group_order
from thetahecke.weylbc import partitions as partitions_of

import oracles
from oracles import (
    all_signed_perms,
    bip_product,
    cycle_type,
    decompose_by_classes,
    eps_twist,
    eps_value,
    expected_module_character,
    induced_eps_character,
    part_splits,
    part_union,
    sn_dim,
    sym_centralizer,
    sym_product,
    sym_product_pair,
    wl_char_induced,
    wl_inner,
)

# -- plain partitions ----------------------------------------------------------


def test_counting():
    assert [len(partitions_of(n)) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert [len(bipartitions(m)) for m in range(7)] == [1, 2, 5, 10, 20, 36, 65]
    for m in range(5):
        assert len(signed_class_types(m)) == len(bipartitions(m))


def test_check_partition_rejects_garbage():
    assert check_partition([3, 1]) == (3, 1)
    for bad in ([1, 3], [0], [2, -1], [1.5]):
        with pytest.raises((ValueError, TypeError)):
            check_partition(bad)


S3_TABLE = {
    # class: (3) -> chi, (2,1) -> chi, (1,1,1) -> chi
    (3,): {(1, 1, 1): 1, (2, 1): 1, (3,): 1},
    (2, 1): {(1, 1, 1): 2, (2, 1): 0, (3,): -1},
    (1, 1, 1): {(1, 1, 1): 1, (2, 1): -1, (3,): 1},
}

S4_TABLE = {
    (4,): {(1, 1, 1, 1): 1, (2, 1, 1): 1, (2, 2): 1, (3, 1): 1, (4,): 1},
    (3, 1): {(1, 1, 1, 1): 3, (2, 1, 1): 1, (2, 2): -1, (3, 1): 0, (4,): -1},
    (2, 2): {(1, 1, 1, 1): 2, (2, 1, 1): 0, (2, 2): 2, (3, 1): -1, (4,): 0},
    (2, 1, 1): {(1, 1, 1, 1): 3, (2, 1, 1): -1, (2, 2): -1, (3, 1): 0, (4,): 1},
    (1, 1, 1, 1): {(1, 1, 1, 1): 1, (2, 1, 1): -1, (2, 2): 1, (3, 1): 1, (4,): -1},
}


@pytest.mark.parametrize("table", [S3_TABLE, S4_TABLE])
def test_sn_char_against_frozen_tables(table):
    for lam, row in table.items():
        for rho, want in row.items():
            assert sn_char(lam, rho) == want


def test_sn_dim_is_identity_value():
    for n in range(1, 7):
        for lam in partitions_of(n):
            assert sn_dim(lam) == sn_char(lam, (1,) * n)
    # hook products, spot value
    assert sn_dim((3, 2)) == 5
    assert sn_dim((2, 2, 1)) == 5


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sn_orthogonality(n):
    lams = partitions_of(n)
    for a in lams:
        for b in lams:
            inner = sum(
                Fraction(sn_char(a, rho) * sn_char(b, rho), sym_centralizer(rho))
                for rho in lams
            )
            assert inner == (1 if a == b else 0)


# -- horizontal strips ----------------------------------------------------------


def contains(big, small):
    if len(small) > len(big):
        return False
    return all(small[i] <= big[i] for i in range(len(small)))


def is_horizontal_strip(big, small):
    """No two added cells share a column: big_{i+1} <= small_i rowwise."""
    if not contains(big, small):
        return False
    padded = list(small) + [0] * (len(big) - len(small))
    return all(big[i + 1] <= padded[i] for i in range(len(big) - 1))


def brute_pieri_add(lam, i):
    out = {}
    for mu in partitions_of(sum(lam) + i):
        if is_horizontal_strip(mu, lam):
            out[mu] = 1
    return out


@pytest.mark.parametrize("size", range(6))
def test_pieri_add_matches_cell_oracle(size):
    for lam in partitions_of(size):
        for i in range(6 - size + 1):
            assert pieri_add(lam, i) == brute_pieri_add(lam, i)


def test_pieri_adjointness():
    for n in range(7):
        for lam in partitions_of(n):
            for i in range(0, 7 - n):
                for mu in partitions_of(n + i):
                    assert (mu in pieri_add(lam, i)) == (lam in pieri_remove(mu, i))


def test_r1_is_first_part():
    """The closed form against the largest strip size that Pieri removal finds."""
    for n in range(11):
        for lam in partitions_of(n):
            assert r1(lam) == max(i for i in range(n + 1) if pieri_remove(lam, i))


def test_pieri_trivia():
    assert pieri_add((), 0) == {(): 1}
    assert pieri_add((2, 1), 0) == {(2, 1): 1}
    assert pieri_remove((1,), 2) == {}
    assert set(pieri_add((2,), 2)) == {(4,), (3, 1), (2, 2)}
    # a partition longer than the interpreter's recursion limit
    column = (1,) * 3000
    assert pieri_remove(column, 1) == {column[1:]: 1}
    assert pieri_add(column, 1) == {(2,) + column[1:]: 1, column + (1,): 1}
    with pytest.raises(ValueError, match="non-negative"):
        pieri_remove((2,), -1)
    with pytest.raises(ValueError, match="non-negative"):
        pieri_add((2,), -1)


@pytest.mark.parametrize("strip", [pieri_add, pieri_remove])
def test_pieri_results_are_not_shared(strip):
    """The strips are memoised, but each call hands out a fresh dict."""
    first = strip((3, 1), 2)
    expect = dict(first)
    first.clear()
    first[(9,)] = 5
    assert strip((3, 1), 2) == expect


# -- signed-group characters ------------------------------------------------------


def test_class_data_partitions_group():
    import math

    for m in range(1, 5):
        order = 2**m * math.factorial(m)
        assert sum(order // signed_centralizer(c) for c in signed_class_types(m)) == order


@pytest.mark.parametrize("l", range(7))
def test_conjugacy_classes_share_the_class_vocabulary(l):
    """The classes of W_l carry the types of signed_class_types(l), sized by signed_centralizer."""
    classes = conjugacy_classes(l)
    assert sorted(c["type"] for c in classes) == sorted(signed_class_types(l))
    for c in classes:
        assert c["size"] == group_order(l) // signed_centralizer(c["type"])
    if l <= 5:
        sizes = Counter(map(cycle_type, all_signed_perms(l)))
        assert sizes == {c["type"]: c["size"] for c in classes}


def test_trivial_and_sign_labels():
    for m in range(1, 5):
        for cls in signed_class_types(m):
            assert wl_char(((m,), ()), cls) == 1
            assert wl_char(((), (m,)), cls) == eps_value(cls)


def test_eps_value_counts_negative_parts():
    assert eps_value(((2, 1), ())) == 1
    assert eps_value(((1,), (2,))) == -1
    assert eps_value(((), (2, 2))) == 1
    assert eps_value(((), (3, 2, 1))) == -1


def test_eps_twist_swaps_slots_classwise():
    for m in range(1, 4):
        for bip in bipartitions(m):
            twisted = eps_twist({bip: 1})
            assert twisted == {(bip[1], bip[0]): 1}
            for cls in signed_class_types(m):
                assert wl_char(bip, cls) * eps_value(cls) == wl_char(
                    (bip[1], bip[0]), cls
                )


@pytest.mark.parametrize("m", range(7))
def test_wl_char_matches_induced_oracle(m):
    """The rim-hook rule agrees with the induced-character sum on every pair."""
    for bip in bipartitions(m):
        for cls in signed_class_types(m):
            assert wl_char(bip, cls) == wl_char_induced(bip, cls), (bip, cls)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_wl_orthogonality(m):
    table = wl_char_table(m)
    bips = list(table)
    for a in bips:
        for b in bips:
            assert wl_inner(table[a], table[b], m) == (1 if a == b else 0)


def test_wl_dimensions():
    import math

    for m in range(1, 5):
        id_cls = ((1,) * m, ())
        for alpha, beta in bipartitions(m):
            a = sum(alpha)
            want = math.comb(m, a) * sn_dim(alpha) * sn_dim(beta)
            assert wl_char((alpha, beta), id_cls) == want


# -- products and branching --------------------------------------------------------


def test_sym_product_small():
    assert sym_product((1,), (1,)) == {(2,): 1, (1, 1): 1}
    assert sym_product((2,), (1,)) == {(3,): 1, (2, 1): 1}
    assert sym_product((2, 1), (1,)) == {(3, 1): 1, (2, 2): 1, (2, 1, 1): 1}
    # row products agree with strip addition
    for lam in partitions_of(3):
        for k in range(3):
            assert sym_product(lam, (k,) if k else ()) == pieri_add(lam, k)


def test_bip_product_is_slotwise():
    one = ((1,), ())
    assert bip_product({one: 1}, {one: 1}) == {((2,), ()): 1, ((1, 1), ()): 1}
    assert bip_product(one, ((), (1,))) == {((1,), (1,)): 1}
    a = {((1,), (1,)): 1}
    prod = bip_product(a, a)
    assert prod == {
        ((2,), (2,)): 1,
        ((2,), (1, 1)): 1,
        ((1, 1), (2,)): 1,
        ((1, 1), (1, 1)): 1,
    }
    # twisting distributes over the slotwise product
    assert eps_twist(prod) == bip_product(eps_twist(a), eps_twist(a))


def test_branching_trivial_from_plain_subgroup():
    """Inducing the trivial character of the plain subgroup gives the sum of
    all two-row labels, classwise."""
    for d in range(1, 5):
        for cls in signed_class_types(d):
            lam, mu = cls
            induced = Fraction(signed_centralizer(cls), sym_centralizer(lam)) if mu == () else 0
            want = sum(wl_char(((a,) if a else (), (d - a,) if d - a else ()), cls) for a in range(d + 1))
            assert induced == want


def test_part_splits_and_union():
    assert part_union((2, 1), (1,)) == (2, 1, 1)
    splits = list(part_splits((2, 1, 1)))
    assert ((2, 1), (1,)) in splits or ((1,), (2, 1)) in splits
    for a, b in splits:
        assert part_union(a, b) == (2, 1, 1)
    # split count: each distinct part value contributes multiplicity+1 choices
    assert len(list(part_splits((2, 1, 1)))) == 2 * 3


# -- lifts --------------------------------------------------------------------------


def test_theta_lift_contract_example():
    lift = theta_lift((), (1,), 1, 1)
    assert lift == {((), (1,)): 1, ((1,), ()): 1}


def test_theta_lift_sizes_and_freeness():
    for l in range(4):
        for lp in range(4):
            for alpha, beta in bipartitions(l):
                lift = theta_lift(alpha, beta, l, lp)
                assert is_multiplicity_free(lift)
                assert all(sum(a) + sum(b) == lp for a, b in lift)


def test_lift_size_counts_the_lift():
    """The closed-form count is the number of terms the strip enumeration lifts
    to, for every label up to rank 6 and every target rank up to 8, and for the
    staircases whose lifts grow exponentially with their rows."""
    for l in range(7):
        for alpha, beta in bipartitions(l):
            for lp in range(9):
                assert lift_size(alpha, beta, l, lp) == len(theta_lift(alpha, beta, l, lp))
    for n, terms in [(6, 448), (8, 2304), (10, 11264)]:
        alpha, l = tuple(range(n, 0, -1)), n * (n + 1) // 2 + n
        assert lift_size(alpha, (n,), l, l + 2 * n) == terms
        assert len(theta_lift(alpha, (n,), l, l + 2 * n)) == terms
    with pytest.raises(ValueError, match="cannot lift"):
        lift_size((1,), (), 2, 2)


def test_theta_lift_checks_its_input_and_result(monkeypatch):
    """Explicit checks, so they hold under python -O too."""
    with pytest.raises(ValueError, match="cannot lift"):
        theta_lift((1,), (), 2, 2)
    real = bipartition.pieri_add
    monkeypatch.setattr(bipartition, "pieri_add", lambda lam, i: [lam])
    with pytest.raises(VerificationError, match="to rank 2 contains"):
        theta_lift((1,), (), 1, 2)
    monkeypatch.setattr(bipartition, "pieri_add", lambda lam, i: list(real(lam, i)) * 2)
    with pytest.raises(VerificationError, match="not multiplicity-free"):
        theta_lift((1,), (), 1, 2)


def test_wl_char_checks_the_class_rank():
    """wl_char refuses a class of another rank; its memoised recursion,
    which only ever sees equal ranks, checks nothing."""
    with pytest.raises(ValueError, match="needs a class of its rank"):
        wl_char(((1,), ()), ((), ()))
    with pytest.raises(ValueError, match="needs a class of its rank"):
        wl_char(((), ()), ((1,), ()))


def test_wl_char_checks_integrality(monkeypatch):
    """A non-integral induced-character sum in the oracle raises instead of truncating."""
    real = oracles.signed_centralizer
    monkeypatch.setattr(oracles, "signed_centralizer", lambda cls: real(cls) + 1)
    wl_char_induced.cache_clear()
    try:
        with pytest.raises(VerificationError, match="not an integer"):
            wl_char_induced(((1,), ()), ((1,), ()))
    finally:
        wl_char_induced.cache_clear()


def test_sym_product_checks_its_multiplicities(monkeypatch):
    """A non-integral or negative multiplicity raises instead of truncating."""
    real_z, real_chi = oracles.sym_centralizer, oracles.sn_char
    sym_product_pair.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(oracles, "sym_centralizer", lambda rho: real_z(rho) + 1)
            with pytest.raises(VerificationError, match="not a nonnegative integer"):
                sym_product_pair((1,), (1,))

        def negated_on_rank_two(lam, rho):
            return -real_chi(lam, rho) if sum(lam) == 2 else real_chi(lam, rho)

        with monkeypatch.context() as m:
            m.setattr(oracles, "sn_char", negated_on_rank_two)
            with pytest.raises(VerificationError, match="is -1, not a nonnegative integer"):
                sym_product_pair((1,), (1,))
    finally:
        sym_product_pair.cache_clear()


def test_induced_eps_character_checks_integrality(monkeypatch):
    """A non-integral induced character raises instead of truncating."""
    real = oracles.signed_centralizer
    monkeypatch.setattr(oracles, "signed_centralizer", lambda cls: real(cls) + 1)
    with pytest.raises(VerificationError, match="not an integer"):
        induced_eps_character(1, 1, 1)


def test_theta_lift_monotone_in_target_rank():
    # once the label occurs, it keeps occurring further up the tower
    alpha, beta = (2,), (1,)
    occs = [bool(theta_lift(alpha, beta, 3, lp)) for lp in range(6)]
    assert occs == sorted(occs)


# -- module-side predictions ---------------------------------------------------------


def test_expected_decomposition_rank_one():
    want = {
        ((((1,), ()), ((), (1,)))): 1,
        ((((), (1,)), ((1,), ()))): 1,
        ((((), (1,)), ((), (1,)))): 1,
    }
    assert expected_decomposition(1, 1) == want


def test_predicted_character_decomposes_consistently():
    for l, lp in [(1, 1), (2, 1), (2, 2)]:
        char = expected_module_character(l, lp)
        assert decompose(char, l, lp) == expected_decomposition(l, lp)


def _character_of(mults: dict, l: int, lp: int) -> dict:
    """sum of m chi_bl (x) chi_br over the multiplicities, zero entries dropped."""
    out: dict = {}
    for (bl, br), m in mults.items():
        for cl in signed_class_types(l):
            xl = m * wl_char(bl, cl)
            if xl:
                for cr in signed_class_types(lp):
                    vs_add(out, (cl, cr), xl * wl_char(br, cr))
    return out


def test_decompose_inverts_synthetic_characters():
    """A character built from random nonnegative multiplicities decomposes back
    to them, as the per-class-pair oracle does."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def shapes_and_mults(draw):
        l, lp = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        pairs = [(bl, br) for bl in bipartitions(l) for br in bipartitions(lp)]
        mults = draw(st.dictionaries(st.sampled_from(pairs), st.integers(0, 4), max_size=8))
        return l, lp, mults

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True)
    @hypothesis.given(case=shapes_and_mults())
    def check(case):
        l, lp, mults = case
        char = _character_of(mults, l, lp)
        got = decompose(char, l, lp)
        want = decompose_by_classes(char, l, lp)
        assert got == want == {key: m for key, m in mults.items() if m}
        assert list(got) == list(want)

    check()


@pytest.mark.parametrize("dropped", [False, True], ids=["every label", "first label dropped"])
@pytest.mark.parametrize("shape", [(1, 1), (2, 1), (1, 2), (2, 2)], ids=lambda s: f"{s[0]},{s[1]}")
def test_decompose_fails_as_the_oracle_does(monkeypatch, shape, dropped):
    """The predicted character, and each of its entries raised by one in turn:
    decompose raises the per-class-pair oracle's message, word for word,
    naming the same first pair.  With every label a corrupted character has a
    multiplicity that is no count; with the first label dropped, as a broken
    label list would, the others fail to reconstruct the true character."""
    l, lp = shape
    char = expected_module_character(l, lp)
    if dropped:
        real = bipartition.bipartitions
        monkeypatch.setattr(bipartition, "bipartitions", lambda m: real(m)[1:])
        monkeypatch.setattr(oracles, "bipartitions", lambda m: real(m)[1:])
    entries = [(cl, cr) for cl in signed_class_types(l) for cr in signed_class_types(lp)]
    kinds = Counter()
    for entry in [None] + entries:
        bad = dict(char)
        if entry is not None:
            bad[entry] = bad.get(entry, 0) + 1
        try:
            got = decompose(bad, l, lp)
        except VerificationError as err:
            msg = str(err)
            with pytest.raises(VerificationError) as info:
                decompose_by_classes(bad, l, lp)
            assert str(info.value) == msg, entry
            kinds["not a count" if msg.endswith("not a count") else "reconstruct"] += 1
        else:
            assert entry is None and not dropped
            assert got == decompose_by_classes(bad, l, lp) == expected_decomposition(l, lp)
    assert kinds == ({"reconstruct": 1, "not a count": len(entries)} if dropped else {"not a count": len(entries)})
