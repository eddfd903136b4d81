"""Command-line interface: argument handling, exit codes, deterministic output."""

import hashlib
import json
import math
import random
import re
import shutil
import subprocess
import sys
import weakref
from collections import Counter
from fractions import Fraction
from importlib.metadata import EntryPoint
from pathlib import Path

import pytest

from thetahecke import VerificationError, bipartition, cli, dualpair, laurent, thetamod, weylbc
from thetahecke.cli import main
from thetahecke.heckealg import HeckeParams, he_mul
from thetahecke.laurent import LaurentPoly
from thetahecke.thetamod import GroupRepAtOne, ThetaModule

from oracles import (
    conservation_scan_report,
    hecke_from_json_obj,
    hecke_to_json_obj,
    hecke_words_product,
    poly_from_json_obj,
    word_product,
)

ROOT = Path(__file__).resolve().parents[1]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    return code, json.loads(out), err


# -- hecke-mul -----------------------------------------------------------------


def test_hecke_mul_round_trip(capsys):
    code, obj, _ = run_json(
        capsys, "hecke-mul", "--l", "2", "--mu", "-3/2", "--a", "s1,t", "--b", "t,s1"
    )
    assert code == 0
    assert obj["mu"] == "-3/2"
    got = hecke_from_json_obj(obj["product"])
    params = HeckeParams.signed(2, Fraction(-3, 2))
    s1, t = word_product(params, [1]), word_product(params, [2])
    want = he_mul(params, he_mul(params, he_mul(params, s1, t), t), s1)
    assert got == want


def test_hecke_mul_identity_words(capsys):
    code, obj, _ = run_json(capsys, "hecke-mul", "--l", "1", "--mu", "1/2", "--a", "e", "--b", "t t")
    assert code == 0
    got = hecke_from_json_obj(obj["product"])
    # t*t = (nu^mu - 1) t + nu^mu
    params = HeckeParams.signed(1, Fraction(1, 2))
    t = word_product(params, [1])
    assert got == he_mul(params, t, t)


@pytest.mark.parametrize("mu", ["1/2", "0", "-1", "3"])
def test_hecke_mul_matches_element_by_element_oracle(capsys, mu):
    """The product of a and b peeled as one word of their letters equals each
    word built letter by letter and the two elements multiplied, on
    non-reduced words of up to 8 letters at ranks 1 to 3."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=30, deadline=None, derandomize=True)
    @hypothesis.given(data=st.data(), l=st.integers(1, 3))
    def check(data, l):
        a, b = (data.draw(st.lists(st.integers(1, l), max_size=8)) for _ in range(2))

        def text(gens):
            return " ".join("t" if g == l else f"s{g}" for g in gens) or "e"

        argv = ["hecke-mul", "--l", str(l), "--mu", mu, "--a", text(a), "--b", text(b)]
        code, obj, _ = run_json(capsys, *argv)
        assert code == 0
        want = hecke_words_product(HeckeParams.signed(l, Fraction(mu)), a, b)
        assert obj["product"] == hecke_to_json_obj(want), (l, a, b)
        # the peel drops cancelled coefficients, so none is printed
        assert all(t["poly"] and 0 not in t["poly"].values() for t in obj["product"]), (l, a, b)

    check()


def test_hecke_mul_rejects_bad_tokens(capsys):
    """A swap token is s and ASCII digits: a superscript two, which int()
    rejects, and an Arabic-Indic three, which int() reads as 3, are bad
    tokens like any other, refused with one line."""
    assert run(capsys, "hecke-mul", "--l", "2", "--mu", "1", "--a", "s9", "--b", "e")[0] == 2
    assert run(capsys, "hecke-mul", "--l", "2", "--mu", "1", "--a", "x", "--b", "e")[0] == 2
    for token in ("s\u00b2", "s\u0663"):
        code, out, err = run(capsys, "hecke-mul", "--l", "4", "--mu", "1", "--a", token, "--b", "e")
        assert (code, out) == (2, "")
        assert err == f"error: bad generator token {token!r} (expected s<i>, t or e)\n"


@pytest.mark.parametrize(
    "l, letters, admitted",
    [
        (2, cli.MAX_HECKE_LETTERS, True),
        (2, cli.MAX_HECKE_LETTERS + 1, False),
        # with no letters the work is rank^2
        (math.isqrt(cli.MAX_HECKE_WORK), 0, True),
        (math.isqrt(cli.MAX_HECKE_WORK) + 1, 0, False),
        # |W_6| = 46080: 46080 x (6*24 + 36) is within 2^23, 46080 x (6*25 + 36) is not
        (6, 24, True),
        (6, 25, False),
        (100000, 2, False),
    ],
)
def test_hecke_mul_size_caps(capsys, monkeypatch, l, letters, admitted):
    """Too many letters or too much work is refused before either word is parsed."""
    a = " ".join(["s1"] * (letters // 2)) or "e"
    b = " ".join(["s1"] * (letters - letters // 2)) or "e"
    monkeypatch.setattr(cli, "word_terms", (lambda params, gens: {}) if admitted else None)
    if not admitted:
        monkeypatch.setattr(cli, "_parse_hecke_word", None)
    code, out, err = run(capsys, "hecke-mul", "--l", str(l), "--mu", "1/2", "--a", a, "--b", b)
    if admitted:
        assert code == 0 and err == ""
        ref = {"l": l, "mu": "1/2", "a": a, "b": b, "product": []}
        assert out == json.dumps(ref, indent=2) + "\n"
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "cap" in err


LONGEST_RANK5 = "s1 s2 s1 s3 s2 s1 s4 s3 s2 s1 t s4 s3 s2 s1 t s4 s3 s2 t s4 s3 t s4 t"


@pytest.mark.parametrize(
    "l, mu, a, b",
    [
        (0, "1", "e", "e"),
        (1, "1/2", "t", "t"),
        (2, "-3/2", "s1,t", "t,s1"),
        (3, "-3/2", "t s2 t s1", "s2 t s1 t s2"),
        (2, "1000000000000000000000000000001/2", "t s1 t", "s1 t"),
        (5, "1/2", LONGEST_RANK5, LONGEST_RANK5),
    ],
    ids=["rank-0", "flip-squared", "negative-flip", "rank-3", "31-digit-mu", "longest-rank-5-squared"],
)
def test_hecke_mul_json_is_json_dumps_of_the_product(capsys, l, mu, a, b):
    """hecke-mul writes its JSON from the term dicts; the text is byte for
    byte json.dumps(indent=2) of the product as objects (tests/oracles.py),
    at rank 0 ("perm": []), at a negative flip exponent and at exponents
    near 10^30."""
    code, out, err = run(capsys, "hecke-mul", "--l", str(l), "--mu", mu, "--a", a, "--b", b)
    assert code == 0 and err == ""
    params = HeckeParams.signed(l, Fraction(mu))
    prod = word_product(params, cli._parse_hecke_word(a, params) + cli._parse_hecke_word(b, params))
    ref = {"l": l, "mu": mu, "a": a, "b": b, "product": hecke_to_json_obj(prod)}
    assert out == json.dumps(ref, indent=2) + "\n"


def test_hecke_mul_text_format(capsys):
    code, out, _ = run(
        capsys, "hecke-mul", "--l", "2", "--mu", "-3/2", "--a", "s1,t", "--b", "t,s1", "--format", "text"
    )
    assert code == 0
    assert out == (
        "product in the rank-2 algebra at mu=-3/2:\n"
        "  [1, 2]: nu^(-1/2)\n"
        "  [2, 1]: -nu^(-3/2) + nu^(-1/2)\n"
        "  [-1, 2]: nu^(-3/2) - 1\n"
    )


def test_hecke_mul_leaves_out_a_cancelled_term(capsys):
    """At mu = 0 the flip's parameter is nu^0, so T_t^2 = T_e + 0 T_t: the
    peel drops the cancelled term, and the product is T_e alone."""
    code, out, _ = run(capsys, "hecke-mul", "--l", "1", "--mu", "0", "--a", "t", "--b", "t")
    assert code == 0
    assert out == (
        '{\n  "l": 1,\n  "mu": "0",\n  "a": "t",\n  "b": "t",\n  "product": [\n'
        '    {\n      "perm": [\n        1\n      ],\n      "poly": {\n        "0": 1\n      }\n    }\n'
        "  ]\n}\n"
    )


def assert_support_order(capsys, l, mu, a, b):
    """hecke-mul of the generator indices a and b prints its terms in the
    support() order of word_product, with no empty poly and no 0 in one;
    --format text lists the same terms in the same order, each poly printed
    as the LaurentPoly of the JSON's entries."""
    params = HeckeParams.signed(l, Fraction(mu))

    def text(gens):
        return " ".join("t" if g == l else f"s{g}" for g in gens) or "e"

    argv = ["hecke-mul", "--l", str(l), "--mu", mu, "--a", text(a), "--b", text(b)]
    code, obj, _ = run_json(capsys, *argv)
    assert code == 0
    assert [tuple(t["perm"]) for t in obj["product"]] == word_product(params, a + b).support(), (l, a, b)
    assert all(t["poly"] and 0 not in t["poly"].values() for t in obj["product"]), (l, a, b)
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 0
    lines = [f"  {t['perm']}: {poly_from_json_obj(t['poly'])}" for t in obj["product"]] or ["  0"]
    assert out.splitlines() == [f"product in the rank-{l} algebra at mu={mu}:", *lines], (l, a, b)


@pytest.mark.parametrize("mu", ["1/2", "0", "-1", "1", "-3/2", "4", "1000000000000000000000000000001/2"])
def test_hecke_mul_prints_terms_in_support_order(capsys, mu):
    """hecke-mul orders the peel's term dicts by (length, perm) itself and
    writes no cancelled entry; at mu = 0, 1 and -1 a parameter is nu^0 or
    the swaps' nu, so entries cancel.  Seeded random
    words of up to 8 letters each at ranks 1 to 4."""
    rng = random.Random(29)
    for _ in range(12):
        l = rng.randint(1, 4)
        a, b = ([rng.randint(1, l) for _ in range(rng.randint(0, 8))] for _ in range(2))
        assert_support_order(capsys, l, mu, a, b)


@pytest.mark.parametrize("mu", ["1/2", "0", "-1"])
def test_hecke_mul_longest_rank_5_squared_in_support_order(capsys, mu):
    """The rank-5 longest element squared, 3840 terms, in support order."""
    gens = [5 if token == "t" else int(token[1:]) for token in LONGEST_RANK5.split()]
    assert_support_order(capsys, 5, mu, gens, gens)


# -- module-verify -------------------------------------------------------------


def test_module_verify_rank_one(capsys):
    code, obj, err = run_json(capsys, "module-verify", "--l", "1", "--lprime", "1", "--mu", "1/2")
    assert code == 0
    assert obj["ok"] and obj["mode"] == "symbolic"
    assert obj["dimension"] == 3 and obj["grades"] == [1, 2]
    assert all("elapsed" not in rel for rel in obj["relations"])
    assert "module-verify" in err


def test_module_verify_negative_mu_space_form(capsys):
    code, obj, _ = run_json(capsys, "module-verify", "--l", "2", "--lprime", "2", "--mu", "-3/2")
    assert code == 0 and obj["ok"]


def test_module_verify_case_range_gate(capsys):
    code, out, err = run(
        capsys, "module-verify", "--l", "2", "--lprime", "2", "--mu", "1/2", "--case", "B"
    )
    assert code == 2 and out == "" and "out of range" in err
    code, obj, _ = run_json(
        capsys, "module-verify", "--l", "2", "--lprime", "2", "--mu", "1/2", "--case", "A"
    )
    assert code == 0 and obj["ok"]


def test_module_verify_refuses_unprintable_mu(capsys, monkeypatch):
    """A mu with more digits than Python prints is refused before anything is
    built or multiplied, by both subcommands that print mu."""
    monkeypatch.setattr(cli, "ThetaModule", None)
    monkeypatch.setattr(cli, "word_terms", None)
    for argv in (("module-verify", "--l", "1", "--lprime", "1"),
                 ("hecke-mul", "--l", "2", "--a", "t", "--b", "t")):
        code, out, err = run(capsys, *argv, "--mu", "1e5000")
        assert code == 2 and out == ""
        assert err == "error: --mu 1e5000 has too many digits to print\n"


MU_ARGV = {
    "module-verify": ("module-verify", "--l", "1", "--lprime", "1"),
    "hecke-mul": ("hecke-mul", "--l", "1", "--a", "t", "--b", "t"),
    "specialize-decompose": ("specialize-decompose", "--l", "1", "--lprime", "1"),
}


@pytest.mark.parametrize("argv", MU_ARGV.values(), ids=list(MU_ARGV))
def test_huge_mu_exponent_is_refused_before_it_is_read(capsys, monkeypatch, argv):
    """Fraction builds a decimal exponent's power of ten in full, seconds of
    work at 1e10000000, so every subcommand with --mu refuses an exponent
    past the digits Python converts, or one with that many digits itself,
    with one line before Fraction sees the text; 1e3 and 0.5 are still read."""
    seen, real = [], laurent.Fraction

    def fraction(*args):
        seen.extend(a for a in args if isinstance(a, str))
        return real(*args)

    monkeypatch.setattr(laurent, "Fraction", fraction)
    limit = sys.get_int_max_str_digits()
    for mu in ("1e100000000", f"1E-{limit + 1}", "1e" + "9" * (limit + 1)):
        code, out, err = run(capsys, *argv, "--mu", mu)
        assert code == 2 and out == "" and seen == []
        assert err == f"error: --mu {mu} has too many digits to print\n"
    for mu in ("1e3", "0.5"):
        code, out, _ = run(capsys, *argv, "--mu", mu)
        assert code == 0 and out and seen[-1] == mu


@pytest.mark.parametrize("mu", ["1_000/2", "\u0661/\u0662"], ids=["underscore", "arabic-indic"])
@pytest.mark.parametrize("argv", MU_ARGV.values(), ids=list(MU_ARGV))
def test_mu_spelling_means_the_same_on_every_python(capsys, argv, mu):
    """Fraction takes "_" between digits from Python 3.11 on, and every
    script's digits on all versions, so --mu takes neither: one line, exit 2."""
    code, out, err = run(capsys, *argv, "--mu", mu)
    assert code == 2 and out == ""
    assert err == f"error: not a half-integer: {mu!r}\n"


def test_module_verify_dimension_cap(capsys, monkeypatch):
    """(6,6) (dimension 291,793) is refused by the work cap before anything
    is built, with one line."""
    monkeypatch.setattr(cli, "ThetaModule", None)  # building would fail fast, not run for long
    code, out, err = run(capsys, "module-verify", "--l", "6", "--lprime", "6", "--mu", "1")
    assert code == 2 and out == ""
    assert err == (
        "error: shape (6,6) with dimension 291793 needs 10521201 relation column checks, "
        "past the module-verify cap of 524288\n"
    )


def test_module_verify_admits_five_five_and_refuses_four_seven(capsys, monkeypatch):
    """(5,5) (dimension 19,091) is under the work cap; (4,7) (21,225) is
    refused by it before anything is built, with one line."""
    caps = (cli.MAX_VERIFY_RANK, "relation column checks", cli.MAX_VERIFY_WORK)
    assert cli._check_size("module-verify", 5, 5, *caps) is None
    monkeypatch.setattr(cli, "ThetaModule", None)  # building would fail fast, not run for long
    code, out, err = run(capsys, "module-verify", "--l", "4", "--lprime", "7", "--mu", "1/2")
    assert code == 2 and out == ""
    assert err == (
        "error: shape (4,7) with dimension 21225 needs 620752 relation column checks, "
        "past the module-verify cap of 524288\n"
    )


def test_module_verify_work_cap_bounds_the_dimension():
    """Over both ranks up to the rank cap, the work cap admits no shape
    larger than (5,5)'s 19,091.  The work grows with either rank, so each
    rank's scan stops at the first shape past the cap."""
    largest = {}
    for l in range(cli.MAX_VERIFY_RANK + 1):
        for lp in range(cli.MAX_VERIFY_RANK + 1):
            if thetamod.verify_work_formula(l, lp) > cli.MAX_VERIFY_WORK:
                break
            largest.setdefault(thetamod.module_dim_formula(l, lp), []).append((l, lp))
    assert max(largest) == 19091 and largest[19091] == [(5, 5)]


@pytest.mark.parametrize("shape", [(3, 14), (2, 70), (1, 200), (200, 1)])
def test_module_verify_work_cap(capsys, monkeypatch, shape):
    """A shape under the rank cap whose relation column checks pass the work
    cap is refused before anything is built, with one line."""
    l, lp = shape
    monkeypatch.setattr(cli, "ThetaModule", None)  # building would fail fast, not run for long
    code, out, err = run(capsys, "module-verify", "--l", str(l), "--lprime", str(lp), "--mu", "1/2")
    dim = thetamod.module_dim_formula(l, lp)
    assert code == 2 and out == ""
    assert err == (
        f"error: shape ({l},{lp}) with dimension {dim} needs {thetamod.verify_work_formula(l, lp)} "
        f"relation column checks, past the module-verify cap of {cli.MAX_VERIFY_WORK}\n"
    )


@pytest.mark.parametrize("shape", [("0", "201"), ("201", "0")], ids=["0,201", "201,0"])
def test_module_verify_rank_cap(capsys, monkeypatch, shape):
    """A rank past the cap is refused before anything is built, whatever the dimension."""
    monkeypatch.setattr(cli, "ThetaModule", None)  # building would fail fast, not run for long
    code, out, err = run(
        capsys, "module-verify", "--l", shape[0], "--lprime", shape[1], "--mu", "1/2"
    )
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "caps" in err


def test_module_verify_runs_in_one_process(capsys):
    """--jobs accepts only 1, and passing it changes nothing."""
    argv = ("module-verify", "--l", "3", "--lprime", "3", "--mu", "1/2")
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--jobs", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, out, _ = run(capsys, *argv)
    assert code == 0 and len(json.loads(out)["relations"]) == 21
    assert run(capsys, *argv, "--jobs", "1")[:2] == (0, out)


def test_module_verify_above_old_symbolic_limit(capsys):
    """(3,4) has dimension 361 and runs the same symbolic column check."""
    code, obj, _ = run_json(
        capsys, "module-verify", "--l", "3", "--lprime", "4", "--mu", "1/2", "--jobs", "1"
    )
    assert code == 0
    assert obj["ok"] and obj["mode"] == "symbolic" and obj["dimension"] == 361
    suite = ThetaModule(3, 4, Fraction(1, 2)).relation_suite()
    assert [r["name"] for r in obj["relations"]] == [chk["name"] for chk in suite]
    assert all(r["ok"] for r in obj["relations"])


def test_module_verify_huge_mu_is_exact(capsys):
    """Exponents are unbounded ints: a 31-digit mu still gives the recorded stdout."""
    code, out, _ = run(
        capsys, "module-verify", "--l", "2", "--lprime", "2", "--mu",
        "1000000000000000000000000000001/2",
    )
    assert code == 0 and json.loads(out)["ok"]
    digest = "f7d09ae2ec02b277b2ac4321cd5940715615a428a2141384d376a8b6d0f6137d"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("mu", ["1/2", "1000000000000000000000000000001/2"], ids=["1/2", "huge"])
def test_module_verify_summary_on_stderr(capsys, mu):
    """The stderr summary ends with the columns the side relations ran on;
    stdout carries no seed count."""
    code, out, err = run(capsys, "module-verify", "--l", "2", "--lprime", "2", "--mu", mu)
    assert code == 0
    summary = err.splitlines()[-1]
    assert re.fullmatch(
        rf"module-verify l=2 lprime=2 mu={re.escape(mu)}: \d+\.\d\ds, side relations on 4 \+ 9 seed columns",
        summary,
    )
    assert "seeds" not in out


def test_module_verify_names_the_seed_columns_on_stderr(capsys, monkeypatch):
    """The stderr summary names the seed counts of the side-0 and side-1
    relations, or every column once a cross relation fails; stdout keeps
    neither."""
    argv = ("module-verify", "--l", "3", "--lprime", "3", "--mu", "1/2")
    code, out, err = run(capsys, *argv)
    assert code == 0 and "seeds" not in out
    assert err.splitlines()[-1].endswith(", side relations on 8 + 27 seed columns")

    class Corrupted(ThetaModule):
        def verify_relations(self):
            for key in self.gen_keys():
                self.matrix(key)
            table, p = self.matrix((0, 1)), self.position(2, (2, 1, 3), (2, 3, 1), (2, 1))
            table[p] = tuple((k, 2 * c) for k, c in table[p])
            return super().verify_relations()

    monkeypatch.setattr(cli, "ThetaModule", Corrupted)
    code, out, err = run(capsys, *argv)
    assert code == 1 and "seeds" not in out
    assert err.splitlines()[-1].endswith(", side relations on every column")


CROSS_LINE = re.compile(
    r"cross relations: (\d+) transfer pairs? on blocks \((\d+) block products?\), "
    r"(?:(\d+) transfer pairs? on every column, )?"
    r"(?:(\d+) flip pairs? on seeds and ascents \((\d+) column checks?\)|(\d+) flip pairs? on every column)"
)


@pytest.mark.parametrize("shape", [(3, 3), (2, 8)], ids=["3,3", "2,8"])
def test_module_verify_says_how_the_cross_relations_were_decided(capsys, monkeypatch, shape):
    """The line before the summary counts the transfer pairs decided on
    blocks and the block products that took, then the transfer pairs run on
    every column, then the flip pairs decided on seeds and ascents with the
    column checks that took, or else run on every column.  On a clean module
    no pair runs on every column: the l' flip pairs take l' checks on each
    of the sum_k C(l, k) block seeds and one on every other column.  A swap
    column changed after the build sends each pair of its letter to every
    column, and the flip pairs with it; a changed flip column sends only the
    flip pairs."""
    l, lp = shape
    argv = ("module-verify", "--l", str(l), "--lprime", str(lp), "--mu", "1/2")
    code, _, err = run(capsys, *argv)
    *_, line, summary = err.splitlines()
    blocks, products, columns, flips, checks, flips_on_columns = CROSS_LINE.fullmatch(line).groups()
    assert code == 0 and summary.startswith(f"module-verify l={l} lprime={lp} ")
    assert (int(blocks), columns, int(flips), flips_on_columns) == ((l - 1) * lp, None, lp, None)
    seeds = sum(math.comb(l, k) for k in range(min(l, lp) + 1))
    assert int(products) > 0 and int(checks) == lp * seeds + ThetaModule(l, lp, 0).dim - seeds

    def corrupted(key, p):
        class Corrupted(ThetaModule):
            def verify_relations(self):
                for g in self.gen_keys():
                    self.matrix(g)
                table = self.matrix(key)
                table[p(self)] = tuple((k, 2 * c) for k, c in table[p(self)])
                return super().verify_relations()

        return Corrupted

    monkeypatch.setattr(cli, "ThetaModule", corrupted((1, 1), lambda mod: mod.unit_pos(1)))
    code, _, err = run(capsys, *argv)
    *_, line, summary = err.splitlines()
    blocks, products, columns, flips, checks, flips_on_columns = CROSS_LINE.fullmatch(line).groups()
    assert code == 1 and summary.startswith(f"module-verify l={l} lprime={lp} ")
    assert (int(blocks), int(columns), flips, int(flips_on_columns)) == ((l - 1) * (lp - 1), l - 1, None, lp)
    assert int(products) > 0

    monkeypatch.setattr(cli, "ThetaModule", corrupted((0, l), lambda mod: mod.unit_pos(1)))
    code, _, err = run(capsys, *argv)
    *_, line, summary = err.splitlines()
    blocks, products, columns, flips, checks, flips_on_columns = CROSS_LINE.fullmatch(line).groups()
    assert code == 1 and summary.startswith(f"module-verify l={l} lprime={lp} ")
    assert (int(blocks), columns, flips, int(flips_on_columns)) == ((l - 1) * lp, None, None, lp)


def test_module_verify_text(capsys):
    code, out, _ = run(
        capsys, "module-verify", "--l", "1", "--lprime", "2", "--mu", "2", "--format", "text"
    )
    assert code == 0
    assert "all relations hold" in out and "PASS" in out


TOWER_A = ("--case", "A", "--dimV0", "0", "--dimVp0", "1")


@pytest.mark.parametrize(
    "argv, text",
    [
        (
            ("first-occurrence", "--alpha", "[1]", "--beta", "[]", "--l", "1", *TOWER_A),
            "case A towers (0; 1, 0), mu=1/2\n"
            "label ([1], []) of rank 1: n=3  n_tilde=0  c=1  mu_sigma=3/2\n",
        ),
        (
            ("conservation-scan", "--lmax", "1", *TOWER_A),
            "case A towers (0; 1, 0), mu=1/2\n"
            " l alpha        beta           n  nt   c  rhs  r2c  r1c\n"
            " 0 []           []             1   0   0    1    0    0\n"
            " 1 []           [1]            1   2   1    5    0   -1\n"
            " 1 [1]          []             3   0   1    5    0   -1\n"
            "all double-c residuals zero\n",
        ),
        (
            ("specialize-decompose", "--l", "1", "--lprime", "1"),
            "specialized module at ranks (1,1), dimension 3\n"
            "  [[], [1]] (x) [[], [1]]  x1\n"
            "  [[], [1]] (x) [[1], []]  x1\n"
            "  [[1], []] (x) [[], [1]]  x1\n"
            "matches predicted decomposition\n",
        ),
        (
            ("coset", "--l", "3", "--k", "1"),
            "sym_block n=3 k=1: 3 representatives\n"
            "  [1, 2, 3]  length 0\n"
            "  [1, 3, 2]  length 1\n"
            "  [2, 3, 1]  length 2\n",
        ),
        (
            # T_t T_t = (nu^(1/2) - 1) T_t + nu^(1/2), each coefficient as a Laurent polynomial
            ("hecke-mul", "--l", "1", "--mu", "1/2", "--a", "t", "--b", "t"),
            "product in the rank-1 algebra at mu=1/2:\n"
            "  [1]: nu^(1/2)\n"
            "  [-1]: -1 + nu^(1/2)\n",
        ),
    ],
    ids=["first-occurrence", "conservation-scan", "specialize-decompose", "coset", "hecke-mul"],
)
def test_text_renderers(capsys, argv, text):
    """--format text prints each subcommand's whole report as pinned here."""
    code, out, _ = run(capsys, *argv, "--format", "text")
    assert code == 0 and out == text


# -- combinatorial subcommands ----------------------------------------------------


def test_theta_lift_cli(capsys):
    code, obj, _ = run_json(
        capsys, "theta-lift", "--alpha", "[]", "--beta", "[1]", "--l", "1", "--lprime", "1"
    )
    assert code == 0
    assert obj["lift"] == [
        {"bipartition": [[], [1]], "mult": 1},
        {"bipartition": [[1], []], "mult": 1},
    ]


def test_theta_lift_empty_renders_zero(capsys):
    code, obj, _ = run_json(
        capsys, "theta-lift", "--alpha", "[1]", "--beta", "[]", "--l", "1", "--lprime", "0"
    )
    assert code == 0 and obj["lift"] == []
    code, out, _ = run(
        capsys,
        "theta-lift", "--alpha", "[1]", "--beta", "[]", "--l", "1", "--lprime", "0",
        "--format", "text",
    )
    assert code == 0 and out.strip().endswith("0")


def test_theta_lift_errors(capsys):
    assert run(capsys, "theta-lift", "--alpha", "[2]", "--beta", "[]", "--l", "1", "--lprime", "1")[0] == 2
    assert run(capsys, "theta-lift", "--alpha", "nope", "--beta", "[]", "--l", "0", "--lprime", "1")[0] == 2
    assert run(capsys, "theta-lift", "--alpha", "[1,2]", "--beta", "[]", "--l", "3", "--lprime", "1")[0] == 2
    # JSON true loads as a bool, which Python counts as the integer 1
    assert run(capsys, "theta-lift", "--alpha", "[true]", "--beta", "[]", "--l", "1", "--lprime", "1")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("theta-lift", "--l", "0", "--lprime", "1"),
        ("first-occurrence", "--l", "0", "--case", "A", "--dimV0", "0", "--dimVp0", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_deeply_nested_partition_exits_2(capsys, argv):
    """A partition nested past the JSON decoder's recursion limit is refused
    as any other text that is no JSON array, with one line and exit 2, never
    a traceback: exit 1 means only that a verification ran and failed."""
    nested = "[" * 10**5 + "]" * 10**5
    for flags in (("--alpha", nested, "--beta", "[]"), ("--alpha", "[]", "--beta", nested)):
        code, out, err = run(capsys, argv[0], *flags, *argv[1:])
        assert code == 2 and out == ""
        assert err.startswith("error: partition must be a JSON array, got '[[[") and err.count("\n") == 1


def test_first_occurrence_cli(capsys):
    code, obj, _ = run_json(
        capsys,
        "first-occurrence", "--alpha", "[1]", "--beta", "[]", "--l", "1",
        "--case", "A", "--dimV0", "0", "--dimVp0", "1",
    )
    assert code == 0
    assert (obj["n"], obj["n_tilde"], obj["c"]) == (3, 0, 1)
    assert obj["mu"] == "1/2" and obj["mu_sigma"] == "3/2"


def test_conservation_scan_cli(capsys):
    code, obj, _ = run_json(
        capsys,
        "conservation-scan", "--lmax", "2",
        "--case", "D", "--dimV0", "2", "--dimVp0", "4",
    )
    assert code == 0
    assert obj["all_double_c_residuals_zero"]
    assert len(obj["rows"]) == 1 + 2 + 5
    assert all(r["residual_double_c"] == 0 for r in obj["rows"])


@pytest.mark.parametrize(
    "lmax, admitted", [(cli.MAX_SCAN_LMAX, True), (cli.MAX_SCAN_LMAX + 1, False), (1000, False)]
)
def test_conservation_scan_size_cap(capsys, monkeypatch, lmax, admitted):
    """--lmax past the cap is refused before any label is listed or checked."""
    stub = {k: 0 for k in ("n", "n_tilde", "c", "rhs", "residual_double_c", "residual_single_c")}
    # a refused request must not check a label; an admitted one checks each against the stub
    monkeypatch.setattr(cli, "conservation_check", (lambda *args: stub) if admitted else None)
    if not admitted:
        monkeypatch.setattr(cli, "bipartitions", None)
    code, out, err = run(
        capsys, "conservation-scan", "--lmax", str(lmax), "--case", "A", "--dimV0", "0", "--dimVp0", "1"
    )
    if admitted:
        assert code == 0 and err == ""
        assert len(json.loads(out)["rows"]) == sum(len(weylbc.bipartitions(l)) for l in range(lmax + 1))
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "cap" in err


# (case, dimV0, dimVp0, chi(-1)) for the five cases, Ct at both signs
SCAN_TOWERS = [("A", 0, 1, None), ("B", 1, 0, None), ("C", 0, 0, None), ("Ct", 0, 1, 1), ("Ct", 0, 1, -1),
               ("D", 0, 0, None)]
SCAN_IDS = ["A", "B", "C", "Ct+", "Ct-", "D"]


def scan_argv(case, dim_v0, dim_vp0, chi, lmax):
    argv = ["conservation-scan", "--lmax", str(lmax), "--case", case]
    argv += ["--dimV0", str(dim_v0), "--dimVp0", str(dim_vp0)]
    return argv + (["--chi-minus-one", str(chi)] if chi else [])


@pytest.mark.parametrize("tower", SCAN_TOWERS, ids=SCAN_IDS)
def test_conservation_scan_json_is_json_dumps_of_per_label_rows(capsys, tower):
    """conservation-scan writes its JSON rows from one template and shares
    each first-occurrence search between a label and its swap; at every
    --lmax up to 6 its stdout is byte for byte json.dumps(indent=2) of the
    report built from each label's own check (tests/oracles.py)."""
    cfg = dualpair.TowerConfig(*tower)
    for lmax in range(7):
        code, out, err = run(capsys, *scan_argv(*tower, lmax))
        assert code == 0 and err == ""
        assert out == json.dumps(conservation_scan_report(cfg, lmax), indent=2) + "\n", lmax


@pytest.mark.parametrize(
    "tower, digest",
    zip(SCAN_TOWERS, [
        "d75667475967ebd64a1b00f70a503c8bd709187a7a702fd4a7656794335d5a68",
        "1e5f7d4f728efa5ad56a39c1ffcacf15cca798b2c80f03dd7474946f1c113d42",
        "7a5a35f24b32880a9212b64d243fa55b01f5e91bdd310691155e72513120bd78",
        "a0e6e1d101546cfa9b3ab5b4193290f94df87e66e0e456e1f4127da97c3738ab",
        "a0e6e1d101546cfa9b3ab5b4193290f94df87e66e0e456e1f4127da97c3738ab",
        "a72aeaed2d50f1da33d9a60956ee166da2bdee1638add677e0a849478e036f48",
    ]),
    ids=SCAN_IDS,
)
def test_conservation_scan_text_digests(capsys, tower, digest):
    """--format text at --lmax 6 prints the recorded bytes (chi(-1) is not printed)."""
    code, out, _ = run(capsys, *scan_argv(*tower, 6), "--format", "text")
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_conservation_scan_runs_each_search_once(capsys, monkeypatch):
    """A scan runs each (alpha, beta, l) first-occurrence search once, so
    theta_lift is asked for each lift once, and for the same lifts as when
    each label searches on its own; first_occurrence is still called once
    per label, in scan order.  Each search lifts once, at its closed-form
    first occurrence l - r1(beta): the ranks below it have no removable
    strip left to lift."""
    lifts, labels = Counter(), []
    real_lift, real_occurrence = dualpair.theta_lift, dualpair.first_occurrence

    def lift(*args):
        lifts[args] += 1
        return real_lift(*args)

    def occurrence(alpha, beta, l, *rest):
        labels.append((alpha, beta))
        return real_occurrence(alpha, beta, l, *rest)

    monkeypatch.setattr(dualpair, "theta_lift", lift)
    monkeypatch.setattr(dualpair, "first_occurrence", occurrence)
    code, _, _ = run(capsys, *scan_argv("A", 0, 1, None, 6))
    scanned = [(alpha, beta, l) for l in range(7) for alpha, beta in weylbc.bipartitions(l)]
    assert code == 0 and labels == [label[:2] for label in scanned]
    assert set(lifts.values()) == {1}
    keys = {key for alpha, beta, l in scanned for key in ((alpha, beta, l), (beta, alpha, l))}
    assert sorted(args[:3] for args in lifts) == sorted(keys)
    assert all(lp == l - bipartition.r1(beta) for _, beta, l, lp in lifts)
    shared = set(lifts)
    lifts.clear()
    cfg = dualpair.TowerConfig("A", 0, 1)
    for alpha, beta, l in scanned:
        dualpair.conservation_check(alpha, beta, l, cfg)
    assert set(lifts) == shared and sum(lifts.values()) > len(shared)


def _per_label_failure(tower, lmax):
    """The first failure of each label checked on its own, as the CLI prints it."""
    cfg = dualpair.TowerConfig(*tower)
    try:
        for l in range(lmax + 1):
            for alpha, beta in weylbc.bipartitions(l):
                dualpair.conservation_check(alpha, beta, l, cfg)
    except VerificationError as exc:
        return f"FAIL: {exc}\n"
    raise AssertionError("no label fails")


@pytest.mark.parametrize("patch", ["r1", "theta_lift"])
def test_conservation_scan_fails_as_a_per_label_search(capsys, monkeypatch, patch):
    """With r1 off by one on three-row partitions, or theta_lift blind below
    rank 3 to the label ([1], [2]), the scan sees the patch and fails at the
    label, with the message, that checking each label on its own gives."""
    if patch == "r1":
        real_r1 = dualpair.r1
        monkeypatch.setattr(dualpair, "r1", lambda lam: real_r1(lam) + (len(lam) == 3))
    else:
        real_lift = dualpair.theta_lift

        def blind(alpha, beta, l, lp):
            return {} if (alpha, beta) == ((1,), (2,)) and lp < 3 else real_lift(alpha, beta, l, lp)

        monkeypatch.setattr(dualpair, "theta_lift", blind)
    code, out, err = run(capsys, *scan_argv("A", 0, 1, None, 4))
    assert_failed_verification(code, out, err, "disagrees with the tower search")
    assert err == _per_label_failure(("A", 0, 1, None), 4)


@pytest.mark.parametrize(
    "l, admitted",
    [(cli.MAX_OCCURRENCE_RANK, True), (cli.MAX_OCCURRENCE_RANK + 1, False), (100000, False)],
)
def test_first_occurrence_rank_cap(capsys, monkeypatch, l, admitted):
    """--l past the cap is refused before the tower is searched."""
    stub = {"n": 1 + 2 * l, "n_tilde": 1, "c": l}
    monkeypatch.setattr(cli, "first_occurrence", (lambda *args: stub) if admitted else None)
    code, out, err = run(
        capsys, "first-occurrence", "--alpha", f"[{l}]", "--beta", "[]", "--l", str(l),
        "--case", "A", "--dimV0", "0", "--dimVp0", "1",
    )
    if admitted:
        assert code == 0 and err == ""
        assert (json.loads(out)["n"], json.loads(out)["c"]) == (1 + 2 * l, l)
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "cap" in err


def _staircase_lift(n: int) -> tuple[str, ...]:
    """A staircase alpha of n rows with beta [n], lifted 2n ranks up."""
    l = n * (n + 1) // 2 + n
    alpha = json.dumps(list(range(n, 0, -1)))
    return ("--alpha", alpha, "--beta", f"[{n}]", "--l", str(l), "--lprime", str(l + 2 * n))


@pytest.mark.parametrize(
    "argv, admitted",
    [
        (_staircase_lift(12), True),
        (_staircase_lift(13), False),
        (_staircase_lift(16), False),
        (("--alpha", "[750]", "--beta", "[250]", "--l", "1000", "--lprime", "2000"), True),
        (("--alpha", "[1000]", "--beta", "[1000]", "--l", "2000", "--lprime", "2000"), False),
        (("--alpha", "[]", "--beta", "[10000]", "--l", "10000", "--lprime", "10000"), True),
        (("--alpha", "[]", "--beta", "[10001]", "--l", "10001", "--lprime", "10001"), False),
        (("--alpha", "[1]", "--beta", "[]", "--l", "1", "--lprime", str(10**9)), False),
    ],
    ids=["stair12", "stair13", "stair16", "750,250", "1000,1000", "rank10000", "rank10001", "lprime"],
)
def test_theta_lift_size_caps(capsys, monkeypatch, argv, admitted):
    """A lift past terms x (parts + 8), counted in closed form, or past the rank
    cap is refused before it is enumerated."""
    monkeypatch.setattr(cli, "theta_lift", (lambda *args: {}) if admitted else None)
    code, out, err = run(capsys, "theta-lift", *argv)
    if admitted:
        assert code == 0 and err == "" and json.loads(out)["lift"] == []
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "cap" in err


def test_tower_flags_are_required(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["conservation-scan", "--lmax", "1", "--case", "A"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_chi_flag_accepts_negative(capsys):
    code, obj, _ = run_json(
        capsys,
        "first-occurrence", "--alpha", "[]", "--beta", "[]", "--l", "0",
        "--case", "Ct", "--dimV0", "2", "--dimVp0", "3", "--chi-minus-one", "-1",
    )
    assert code == 0 and obj["mu"] == "0"


def test_specialize_decompose_cli(capsys):
    code, obj, _ = run_json(capsys, "specialize-decompose", "--l", "1", "--lprime", "1")
    assert code == 0
    assert obj["matches_expected"]
    assert len(obj["multiplicities"]) == 3
    assert obj["dimension"] == 3


def test_specialize_frees_the_module_before_the_character(capsys, monkeypatch):
    """specialize-decompose reads what it prints of the module first, so the
    module and its generic columns are freed before the character walk, and
    stdout is as before."""
    modules, alive = [], []
    init, character = ThetaModule.__init__, GroupRepAtOne.character

    def tracked_init(self, *args):
        init(self, *args)
        modules.append(weakref.ref(self))

    def watched_character(self):
        alive.append([ref() is not None for ref in modules])
        return character(self)

    monkeypatch.setattr(ThetaModule, "__init__", tracked_init)
    monkeypatch.setattr(GroupRepAtOne, "character", watched_character)
    code, out, _ = run(capsys, "specialize-decompose", "--l", "2", "--lprime", "2")
    assert code == 0 and alive == [[False]]
    obj = json.loads(out)
    assert obj["dimension"] == 17 and obj["grades"] == [1, 8, 8] and obj["matches_expected"]


def test_coset_cli(capsys):
    code, obj, _ = run_json(capsys, "coset", "--l", "3", "--k", "1")
    assert code == 0
    (table,) = obj["tables"]
    assert table["count"] == 3 and table["kind"] == "sym_block"
    assert all(len(r["perm"]) == 3 for r in table["reps"])

    code, obj, _ = run_json(capsys, "coset", "--lprime", "2")
    assert code == 0
    counts = [t["count"] for t in obj["tables"]]
    assert counts == [2**k * math.comb(2, k) for k in range(3)]


def test_coset_takes_each_length_once(capsys, monkeypatch):
    """Each representative's O(rank^2) length is computed once, for the sort
    and the printed table alike."""
    calls = []

    def counted(w):
        calls.append(w)
        return real(w)

    real = weylbc.length
    monkeypatch.setattr(weylbc, "length", counted)
    monkeypatch.setattr(cli, "length", counted, raising=False)
    code, obj, _ = run_json(capsys, "coset", "--lprime", "3")
    reps = [tuple(r["perm"]) for t in obj["tables"] for r in t["reps"]]
    assert code == 0 and len(reps) == 27
    assert sorted(calls) == sorted(reps)


def test_coset_flag_misuse(capsys):
    assert run(capsys, "coset", "--l", "2", "--lprime", "2")[0] == 2
    assert run(capsys, "coset")[0] == 2
    assert run(capsys, "coset", "--l", "2", "--k", "3")[0] == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("module-verify", "--l", "-1", "--lprime", "1", "--mu", "1/2"),
        ("specialize-decompose", "--l", "-1", "--lprime", "2"),
        ("theta-lift", "--alpha", "[]", "--beta", "[]", "--l", "0", "--lprime", "-1"),
        ("hecke-mul", "--l", "0", "--mu", "1", "--a", "t", "--b", "e"),
        ("coset", "--l", "-2"),
        ("conservation-scan", "--lmax", "-1", "--case", "A", "--dimV0", "0", "--dimVp0", "1"),
    ],
    ids=lambda argv: argv[0],
)
def test_bad_rank_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("module-verify", "--l", "1", "--lprime", "1", "--mu", "1/0"),
        ("specialize-decompose", "--l", "1", "--lprime", "1", "--mu", "1/0"),
        ("hecke-mul", "--l", "1", "--mu", "1/0", "--a", "t", "--b", "t"),
    ],
    ids=lambda argv: argv[0],
)
def test_zero_denominator_mu_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [("--l", "9", "--lprime", "9"), ("--l", "0", "--lprime", "12"), ("--l", "4", "--lprime", "6")],
    ids=lambda argv: f"{argv[1]},{argv[3]}",
)
def test_specialize_decompose_size_cap(capsys, monkeypatch, argv):
    """Shapes past the rank or dimension cap are refused before anything is built."""
    monkeypatch.setattr(cli, "ThetaModule", None)  # building would fail fast, not fill memory
    code, out, err = run(capsys, "specialize-decompose", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "caps" in err


@pytest.mark.parametrize(
    "argv, admitted",
    [
        (("--lprime", "30"), False),
        (("--l", "40"), False),
        (("--lprime", "11"), False),
        (("--l", "16"), False),
        (("--l", "2897", "--k", "0"), False),
        (("--lprime", "10"), True),
        (("--l", "15"), True),
        (("--l", "2896", "--k", "0"), True),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, tuple) else str(v),
)
def test_coset_size_cap(capsys, monkeypatch, argv, admitted):
    """Tables past representatives x rank^2 are refused from their closed-form count."""
    # a refused request must not list a representative; an admitted one lists none here
    monkeypatch.setattr(cli, "coset_table", (lambda spec: ()) if admitted else None)
    code, out, err = run(capsys, "coset", *argv)
    if admitted:
        assert code == 0 and err == ""
    else:
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1 and "cap" in err


# -- failed verifications: exit 1, one stderr line, nothing on stdout ------------------


def assert_failed_verification(code, out, err, needle):
    assert code == 1 and out == ""
    assert err.startswith("FAIL: ") and err.count("\n") == 1 and needle in err


@pytest.mark.parametrize(
    "gen, relation", [((0, 2), "quad_flip"), ((1, 2), "quad_prime_flip")], ids=["T", "Tp"]
)
def test_specialize_decompose_reports_broken_relation(capsys, monkeypatch, gen, relation):
    """A corrupted generator matrix at nu = 1 is a failed verification: exit 1."""
    real = ThetaModule.matrices_at_one

    def corrupted(self):
        mats = real(self)
        col = dict(mats[gen][0])
        col[0] = col.get(0, 0) + 1
        mats[gen][0] = tuple(sorted(col.items()))
        return mats

    monkeypatch.setattr(ThetaModule, "matrices_at_one", corrupted)
    code, out, err = run(capsys, "specialize-decompose", "--l", "2", "--lprime", "2")
    assert_failed_verification(code, out, err, f"group relation {relation} fails")


def test_specialize_decompose_reports_non_integer_multiplicity(capsys, monkeypatch):
    real = GroupRepAtOne.character

    def corrupted(self):
        char = real(self)
        char[next(iter(char))] += 1
        return char

    monkeypatch.setattr(GroupRepAtOne, "character", corrupted)
    code, out, err = run(capsys, "specialize-decompose", "--l", "1", "--lprime", "1")
    assert_failed_verification(code, out, err, "not a count")


def test_specialize_decompose_reports_failed_reconstruction(capsys, monkeypatch):
    """With one irreducible left out, the others cannot rebuild the character."""
    real = bipartition.bipartitions
    monkeypatch.setattr(bipartition, "bipartitions", lambda m: real(m)[1:])
    code, out, err = run(capsys, "specialize-decompose", "--l", "1", "--lprime", "1")
    assert_failed_verification(code, out, err, "reconstruct")


def test_first_occurrence_reports_closed_form_mismatch(capsys, monkeypatch):
    real = dualpair.r1
    monkeypatch.setattr(dualpair, "r1", lambda p: real(p) + 1)
    code, out, err = run(
        capsys,
        "first-occurrence", "--alpha", "[1]", "--beta", "[]", "--l", "1",
        "--case", "A", "--dimV0", "0", "--dimVp0", "1",
    )
    assert_failed_verification(code, out, err, "disagrees with the tower search")


def test_conservation_scan_reports_nonzero_residual(capsys, monkeypatch):
    """A wrong degree-drop index shows up as a residual and exit 1, not a crash."""
    real = dualpair.first_occurrence

    def off_by_one(*args):
        occ = real(*args)
        return {**occ, "c": occ["c"] + 1}

    monkeypatch.setattr(dualpair, "first_occurrence", off_by_one)
    code, out, _ = run(
        capsys, "conservation-scan", "--lmax", "1", "--case", "D", "--dimV0", "2", "--dimVp0", "4"
    )
    assert code == 1
    obj = json.loads(out)
    assert not obj["all_double_c_residuals_zero"]
    assert {r["residual_double_c"] for r in obj["rows"]} == {2}
    # the whole document is printed, every row in
    assert out == json.dumps(obj, indent=2) + "\n" and len(obj["rows"]) == 3


def test_conservation_scan_failure_at_the_last_label_prints_nothing(capsys, monkeypatch):
    """The document is printed once every row is in, so a check that fails
    at the scan's last label leaves stdout empty."""
    real = dualpair.first_occurrence
    last = weylbc.bipartitions(3)[-1]

    def failing(alpha, beta, l, *rest):
        if (alpha, beta) == last:
            raise VerificationError(f"planted failure at ({list(alpha)}, {list(beta)})")
        return real(alpha, beta, l, *rest)

    monkeypatch.setattr(dualpair, "first_occurrence", failing)
    code, out, err = run(capsys, *scan_argv("A", 0, 1, None, 3))
    assert_failed_verification(code, out, err, f"planted failure at ({list(last[0])}, {list(last[1])})")


def test_coset_reports_failed_descent_check(capsys, monkeypatch):
    monkeypatch.setattr(weylbc, "is_distinguished", lambda d, spec: False)
    weylbc.distinguished_reps.cache_clear()
    try:
        code, out, err = run(capsys, "coset", "--l", "3")
    finally:
        weylbc.distinguished_reps.cache_clear()
    assert_failed_verification(code, out, err, "right descent")


def test_module_verify_reports_grade_count_mismatch(capsys, monkeypatch):
    """The basis enumeration is checked against the closed-form grade dimension."""
    real = thetamod.grade_dim_formula
    monkeypatch.setattr(thetamod, "grade_dim_formula", lambda l, lp, k: real(l, lp, k) + 1)
    code, out, err = run(capsys, "module-verify", "--l", "1", "--lprime", "1", "--mu", "1/2")
    assert_failed_verification(code, out, err, "closed form gives 2")


def test_cli_import_starts_no_worker_machinery():
    code = (
        "import sys, thetahecke.cli; "
        "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


def test_verify_and_specialize_load_no_numpy():
    """Both checks run on Python ints; numpy alone would add about 11 MB of RSS."""
    code = (
        "import contextlib, io, sys\n"
        "from thetahecke.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['module-verify', '--l', '2', '--lprime', '2', '--mu', '1/2']),\n"
        "             main(['specialize-decompose', '--l', '2', '--lprime', '2'])]\n"
        "print(codes, sorted({'numpy', 'scipy'} & set(sys.modules)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[0, 0] []"


# -- parser ------------------------------------------------------------------------

# per subcommand: one valid argv, and one with a required flag left out (coset
# has none, so its --l lacks a value)
PARSER_ARGV = {
    "module-verify": (["--l", "1", "--lprime", "2", "--mu", "-1/2", "--case", "A"], ["--l", "1", "--mu", "1/2"]),
    "theta-lift": (["--alpha", "[1]", "--beta", "[]", "--l", "1", "--lprime", "2"], ["--alpha", "[1]", "--l", "1"]),
    "first-occurrence": (
        ["--alpha", "[]", "--beta", "[1]", "--l", "1", "--case", "Ct", "--dimV0", "0", "--dimVp0", "1",
         "--chi-minus-one", "-1"],
        ["--alpha", "[]", "--beta", "[1]", "--l", "1", "--dimV0", "0", "--dimVp0", "1"],
    ),
    "conservation-scan": (
        ["--lmax", "3", "--case", "B", "--dimV0", "1", "--dimVp0", "0", "--format", "text"],
        ["--case", "B", "--dimV0", "1", "--dimVp0", "0"],
    ),
    "specialize-decompose": (["--l", "2", "--lprime", "1"], ["--lprime", "1"]),
    "coset": (["--lprime", "3", "--k", "1"], ["--l"]),
    "hecke-mul": (["--l", "2", "--mu", "3/2", "--a", "s1", "--b", "t"], ["--l", "2", "--a", "s1", "--b", "t"]),
}


def parse(capsys, parser, argv):
    """The namespace parser gives argv, or its exit code and output."""
    try:
        return parser.parse_args(cli._merge_dash_values(argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def test_parser_table_names_every_subcommand():
    assert list(PARSER_ARGV) == list(cli.SUBCOMMANDS)
    assert len(cli.SUBCOMMANDS) == 7


@pytest.mark.parametrize("name", PARSER_ARGV)
def test_one_subcommand_parser_parses_as_the_full_one(capsys, name):
    """build_parser(name) gives the subcommand the help, namespaces and errors
    of the full parser, byte for byte."""
    valid, missing = PARSER_ARGV[name]
    for argv in ([name, "-h"], [name, *valid], [name, *missing]):
        assert parse(capsys, cli.build_parser(name), argv) == parse(capsys, cli.build_parser(), argv)
    code, out, err = parse(capsys, cli.build_parser(name), [name, "-h"])
    assert code == 0 and out.startswith(f"usage: thetahecke {name} [-h]") and err == ""
    args = parse(capsys, cli.build_parser(name), [name, *valid])
    assert args.subcommand == name and args.func is cli.SUBCOMMANDS[name][1]
    code, out, err = parse(capsys, cli.build_parser(name), [name, *missing])
    assert code == 2 and out == "" and err.startswith(f"usage: thetahecke {name} ")
    assert err.endswith("\n") and f"thetahecke {name}: error: " in err


@pytest.mark.parametrize("name", PARSER_ARGV)
def test_main_builds_only_the_named_subcommands_parser(capsys, monkeypatch, name):
    built, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda only=None: built.append(only) or real(only))
    with pytest.raises(SystemExit) as exc:
        main([name, *PARSER_ARGV[name][1]])
    assert exc.value.code == 2 and built == [name]


def test_main_lists_every_subcommand_without_one(capsys):
    """-h, a missing or an unknown subcommand, and arguments no parser knows
    are answered by the full parser, whose usage lists all seven."""
    listing = "{" + ",".join(PARSER_ARGV) + "}"
    for argv, want in ([["-h"], 0], [[], 2], [["bogus"], 2], [["coset", "--l", "2", "--bogus"], 2]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        captured = capsys.readouterr()
        assert exc.value.code == want
        text = captured.out if want == 0 else captured.err
        assert listing in text.replace("\n", "").replace(" ", "")
    assert "invalid choice: 'bogus'" in parse(capsys, cli.build_parser(), ["bogus"])[2]
    assert parse(capsys, cli.build_parser(), ["coset", "--bogus"])[2].endswith(
        "thetahecke: error: unrecognized arguments: --bogus\n"
    )


# -- determinism across processes ----------------------------------------------------


def cli_bytes(*argv, flags=()):
    proc = subprocess.run(
        [sys.executable, *flags, "-m", "thetahecke.cli", *argv],
        capture_output=True,
        check=True,
    )
    return proc.stdout


DETERMINISM_ARGV = [
    ("module-verify", "--l", "2", "--lprime", "2", "--mu", "-3/2"),
    ("hecke-mul", "--l", "2", "--mu", "-3/2", "--a", "s1,t", "--b", "t,s1"),
    ("conservation-scan", "--lmax", "2", "--case", "A", "--dimV0", "1", "--dimVp0", "2"),
]


@pytest.mark.parametrize("argv", DETERMINISM_ARGV)
def test_stdout_is_byte_identical_between_runs(argv):
    first, second = cli_bytes(*argv), cli_bytes(*argv)
    assert first == second
    json.loads(first)


@pytest.mark.parametrize("argv", DETERMINISM_ARGV)
def test_stdout_is_byte_identical_under_optimize(argv):
    """python -O strips asserts; the reports must not depend on them."""
    assert cli_bytes(*argv, flags=("-O",)) == cli_bytes(*argv)


def test_console_entry_point(monkeypatch, capsys):
    """The declared console script resolves to cli.main and runs as its wrapper calls it."""
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["thetahecke"]
    entry = EntryPoint(name="thetahecke", value=target, group="console_scripts").load()
    assert entry is main
    # The generated wrapper runs sys.exit(main()), so main reads sys.argv itself.
    monkeypatch.setattr(sys, "argv", ["thetahecke", "coset", "--l", "2"])
    code = entry()
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)
    assert out == run(capsys, "coset", "--l", "2")[1]


@pytest.mark.skipif(
    shutil.which("thetahecke") is None, reason="thetahecke console script not on PATH"
)
def test_console_script_on_path():
    proc = subprocess.run(["thetahecke", "coset", "--l", "2"], capture_output=True, check=True)
    assert proc.stdout == cli_bytes("coset", "--l", "2")
