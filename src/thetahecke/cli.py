"""Command-line interface: one binary, subcommand per computation.

stdout carries only the deterministic report (JSON by default, aligned
text with --format text); timings and diagnostics go to stderr so repeated
runs stay byte-identical.  Exit codes: 0 success, 1 a verification ran and
failed, 2 usage errors or infeasible sizes.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from . import VerificationError
from .bipartition import (
    bipartitions,
    check_partition,
    decompose,
    expected_decomposition,
    lift_size,
    theta_lift,
    vs_to_json,
)
from .dualpair import (
    CASES,
    TowerConfig,
    conservation_check,
    first_occurrence,
    mu_of,
    mu_range_check,
    mu_sigma,
)
from .heckealg import HeckeParams, word_terms
from .laurent import LaurentPoly, as_half, format_half
from .thetamod import GroupRepAtOne, ThetaModule, module_dim_formula, verify_work_formula
from .weylbc import CosetSpec, coset_table, group_order, length

# module-verify is capped by its relation column checks in the worst case
# (verify_work_formula): every cross relation on every column, as a transfer
# or a flip pair runs when it falls back, each check about 10-15 us.
# The dimension does not bound them: (1,200) (dim 401, 8.1M checks) took
# 78 s and (3,14) (dim 19,741, 1.2M) 17.7 s in process, and (2,70) (dim
# 19,601, 27.1M) 422 s at 805 MB end to end before the columns were built
# from each grade's tensor layout.  They bound the dimension, and
# with it the memory of every generator's columns: up to rank 200 the largest
# admitted is (5,5)'s 19,091 (481,400 checks), while (4,7) (dim 21,225) needs
# 620,752 and (6,6) 10.5M.  On 2 cores with Python 3.11.7, end to end at
# mu = 1/2, two runs each, side by side with columns keyed by their absolute
# rows (no transfer template shared), (4,6) (dim 10,369) took 1.2-1.3 s at
# 33 MB peak RSS (52 MB before) and (5,5) 1.7-1.9 s at 39 MB (77 MB); the
# largest admitted shapes by checks, (1,79), (99,1), (31,2), (5,5), (12,3),
# (2,24) and (3,11) (410k-515k), took 1.1-3.0 s at 20-43 MB (26-77 MB); the
# two slowest admitted requests found before, (2,24) at mu = (10^30 + 1)/2
# and (3,11) at mu = -1, took 2.7 s at 33 MB and 2.3-2.5 s at 43 MB (41 and
# 63 MB)
MAX_VERIFY_WORK = 2**19
# the rank is checked before the work is counted: the suite has about rank^2 /
# 2 relations; (0, 200) (dimension 1) takes 0.15 s in process and 0.29 s end
# to end on 2 cores with Python 3.11.7
MAX_VERIFY_RANK = 200
# specialize-decompose holds every generator as sparse integer columns at
# nu = 1, the generic columns freed once those are read (and, while it runs,
# each signed-permutation generator as two lists), the class products of the
# side with fewer classes, about one product per level of the other side's
# suffix trie, and a character over every class pair; on 2 cores with Python
# 3.11.7, end to end, two runs each, side by side with columns keyed by their
# absolute rows, (4,4) (dim 1473) took 0.24-0.29 s at 26 MB peak RSS (26 MB
# before), (5,4) (dim 4361) 0.72-0.75 s at 44 MB (46-47 MB), and (3,8) (dim
# 3409, but 185 classes on the rank-8 side) 0.86-0.94 s at 35 MB (42 MB)
MAX_SPECIALIZE_RANK = 8
MAX_SPECIALIZE_DIM = 5000
# coset prints every representative with its length, an O(rank^2) inversion
# count taken once per representative, so a request costs representatives x
# rank^2; on 2 cores with Python 3.11.7 the largest admitted tables, --lprime 10
# (59,049 representatives) and --l 15 (32,768), took 1.7 s at 129 MB and 1.05 s
# at 93 MB peak RSS end to end, where --lprime 11 (177,147) took 4.8 s at 372 MB
# in process
MAX_COSET_WORK = 2**23
# conservation-scan checks every bipartition of every rank up to --lmax; on 2
# cores with Python 3.11.7, end to end, two runs each, --lmax 16 (17,345
# labels) took 1.4-1.8 s at 29 MB peak RSS, --lmax 18 (38,045) 4.2-4.7 s at
# 43 MB and --lmax 20 (80,377) 10.4-11.1 s at 74 MB, within the 15 s and
# 142 MB of --lmax 18 when the report went through json.dumps and every
# search ran twice; --lmax 22 (164,389) took 21 s at 134 MB
MAX_SCAN_LMAX = 20
# first-occurrence searches the tower one rank at a time, and each rank's lift
# looks up O(rank) strip removals keyed by the label; on 2 cores with Python
# 3.11.7, --l 1000 took 0.29 s for the label ([1000], []), 2.4 s for
# ([1^1000], []) and 3.1 s for ([1^500], [1^500]), the slowest label found;
# --l 2000 took 0.90 s for ([2000], []) and 17 s for ([1^2000], [])
MAX_OCCURRENCE_RANK = 1000
# hecke-mul: words with n letters in all multiply out to at most min(|W_l|, 2^n)
# terms, each costing O(l) per letter and O(l^2) for its printed length, so a
# request costs min(|W_l|, 2^n) x (n l + l^2); a rank with rank^2 past the cap
# is refused uncounted.  The count leaves out the coefficients, whose monomials
# grow with the letters, so the letters are capped too.  On 2 cores with Python
# 3.11.7, before the caps, --l 3000 --a s1 --b s1 took 0.39 s and --l 10000
# 3.7 s, the rank-6 longest element squared (72 letters) 7.7 s at 565 MB, and
# two random 35-letter words at rank 4 17 s; under them, end to end, the rank-5
# longest element squared (50 letters) takes 0.20-0.37 s at 23 MB (0.27-0.44 s
# with one dict update per monomial), and the slowest admitted request found,
# the 25 + 25 random letters at rank 5 and mu = 1001/2 that CI runs,
# 0.81-1.39 s at 45 MB (0.99-1.46 s at 75 MB with one dict update per monomial)
MAX_HECKE_WORK = 2**23
MAX_HECKE_LETTERS = 50
# theta-lift prints every term of the lift, and the terms grow exponentially
# with the distinct parts of the label; lift_size counts them in closed form,
# and each prints a label of up to len(alpha) + len(beta) + 1 parts on top of
# about eight parts' worth of JSON, so a request costs terms x (parts + 8).  On
# 2 cores with Python 3.11.7, before the cap, a staircase alpha of n rows with
# beta [n], l = n(n+1)/2 + n, l' = l + 2n took 1.1 s at 166 MB peak RSS for
# n = 12 (53,248 terms, cost 1.17M), 6.2 s at 753 MB for n = 14 and 29 s at
# 3.55 GB for n = 16; the slowest admitted requests found, all near the cap
# with about 27 MB of stdout, took 1.6-2.2 s at 255-290 MB for labels of 8 to
# 24 parts and 2.8 s at 370 MB for ([750], [250]) from rank 1000 to 2000
MAX_LIFT_WORK = 2**21
# the rank bounds the loop over k and the closed-form count, whose cost is the
# distinct parts times the first part: at rank 10,000 the worst label found,
# [5000] over a 99-row staircase, is counted and refused in 0.18 s end to end,
# and ([], [10000]) to rank 10,000 lifts in 0.27 s at 37 MB
MAX_LIFT_RANK = 10000


def _parse_partition(text: str):
    try:
        obj = json.loads(text) if text.strip() else []
    except json.JSONDecodeError:
        raise ValueError(f"partition must be a JSON array, got {text!r}")
    # JSON true and false load as bool, a subclass of int
    if not isinstance(obj, list) or not all(type(x) is int for x in obj):
        raise ValueError(f"partition must be a JSON array of integers, got {text!r}")
    return check_partition(obj)


def _check_size(subcommand: str, l: int, lp: int, max_rank: int, cost: str, max_cost: int) -> None:
    """Refuse a shape past a subcommand's caps before anything is built: its
    rank, and then one counted cost, the "dimension" or the "relation column
    checks" (verify_work_formula)."""
    caps = f"rank {max_rank}, {cost} {max_cost}"
    # the rank is checked first: the dimension of a huge rank is itself costly
    if max(l, lp) > max_rank:
        raise ValueError(f"shape ({l},{lp}) exceeds the {subcommand} caps: {caps}")
    dim = module_dim_formula(l, lp)
    shape = f"shape ({l},{lp}) with dimension {dim}"
    if cost == "dimension" and dim > max_cost:
        raise ValueError(f"{shape} exceeds the {subcommand} caps: {caps}")
    if cost != "dimension" and (work := verify_work_formula(l, lp)) > max_cost:
        raise ValueError(f"{shape} needs {work} {cost}, past the {subcommand} cap of {max_cost}")


def _emit(args, obj, text_renderer):
    if args.format == "text":
        print(text_renderer(obj))
    else:
        print(json.dumps(obj, indent=2))


def _print_json(head: dict, key: str, items, tail: str = "") -> None:
    """Print json.dumps({**head, key: [...], ...}, indent=2), json.dumps's slow
    pure Python encoder aside, from the list's items written at their depth
    (an int prints as its repr in both) and tail, the fields after the list.
    Each item is written as it comes, never joined into one document."""
    write, sep = sys.stdout.write, "\n"
    write(json.dumps(head, indent=2)[:-2] + f',\n  "{key}": [')  # without the closing "\n}"
    for item in items:
        write(sep + item)
        sep = ",\n"
    write(("]" if sep == "\n" else "\n  ]") + f"{tail}\n}}\n")


# -- module-verify --------------------------------------------------------------


def _printable_mu(args):
    """--mu as a half-integer and its printed form, taken before any work so
    that a mu with more digits than Python prints is refused up front; as_half
    refuses a decimal exponent past them before it builds the value."""
    refused = ValueError(f"--mu {args.mu} has too many digits to print")
    try:
        mu = as_half(args.mu)
    except OverflowError:
        raise refused from None
    try:
        return mu, format_half(mu)
    except ValueError:
        raise refused from None


def cmd_module_verify(args) -> int:
    mu, mu_text = _printable_mu(args)
    if args.case is not None and not mu_range_check(args.case, mu):
        raise ValueError(f"mu={mu_text} is out of range for case {args.case}")
    l, lp = args.l, args.lprime
    _check_size("module-verify", l, lp, MAX_VERIFY_RANK, "relation column checks", MAX_VERIFY_WORK)

    t0 = time.perf_counter()
    report = ThetaModule(l, lp, mu).verify_relations()
    report["mode"] = "symbolic"
    elapsed = time.perf_counter() - t0
    seeds, cross = report.pop("seeds"), report.pop("cross")
    columns = "every column" if seeds is None else f"{seeds[0]} + {seeds[1]} seed columns"

    def count(n, what):
        return f"{n} {what}{'' if n == 1 else 's'}"

    decided = [
        f"{count(cross['transfer_on_blocks'], 'transfer pair')} on blocks "
        f"({count(cross['block_products'], 'block product')})"
    ]
    if cross["transfer_on_columns"]:
        decided.append(f"{count(cross['transfer_on_columns'], 'transfer pair')} on every column")
    if cross["flip_on_ascents"]:
        decided.append(
            f"{count(cross['flip_on_ascents'], 'flip pair')} on seeds and ascents "
            f"({count(cross['ascent_checks'], 'column check')})"
        )
    else:
        decided.append(f"{count(cross['flip_on_columns'], 'flip pair')} on every column")

    for rel in report["relations"]:
        took = rel.pop("elapsed")
        print(f"{rel['name']}: {'PASS' if rel['ok'] else 'FAIL'} ({took:.3f}s)", file=sys.stderr)
    print(f"cross relations: {', '.join(decided)}", file=sys.stderr)
    print(
        f"module-verify l={l} lprime={lp} mu={mu_text}: {elapsed:.2f}s, side relations on {columns}",
        file=sys.stderr,
    )

    def render(rep):
        lines = [f"dimension {rep['dimension']}  grades {rep['grades']}  mode {rep['mode']}"]
        lines += [f"  {r['name']:<28} {'PASS' if r['ok'] else 'FAIL'}" for r in rep["relations"]]
        lines.append("all relations hold" if rep["ok"] else "FAILURES found")
        return "\n".join(lines)

    _emit(args, report, render)
    return 0 if report["ok"] else 1


# -- combinatorial subcommands ----------------------------------------------------


def cmd_theta_lift(args) -> int:
    if max(args.l, args.lprime) > MAX_LIFT_RANK:
        raise ValueError(f"rank {max(args.l, args.lprime)} exceeds the theta-lift cap {MAX_LIFT_RANK}")
    alpha, beta = _parse_partition(args.alpha), _parse_partition(args.beta)
    if sum(alpha) + sum(beta) != args.l:
        raise ValueError("label size must equal --l")
    terms, parts = lift_size(alpha, beta, args.l, args.lprime), len(alpha) + len(beta) + 1
    if terms * (parts + 8) > MAX_LIFT_WORK:
        raise ValueError(
            f"the lift has {terms} terms of up to {parts} parts, past the theta-lift cap: "
            f"terms x (parts + 8) at most {MAX_LIFT_WORK}"
        )
    lift = theta_lift(alpha, beta, args.l, args.lprime)
    obj = {
        "l": args.l,
        "lprime": args.lprime,
        "alpha": list(alpha),
        "beta": list(beta),
        "lift": vs_to_json(lift),
    }

    def render(o):
        lines = [f"lift of ({o['alpha']}, {o['beta']}) from rank {o['l']} to rank {o['lprime']}:"]
        lines += [f"  {item['bipartition']}  x{item['mult']}" for item in o["lift"]] or ["  0"]
        return "\n".join(lines)

    _emit(args, obj, render)
    return 0


def _tower_config(args) -> TowerConfig:
    if args.case is None or args.dimV0 is None or args.dimVp0 is None:
        raise ValueError("--case, --dimV0 and --dimVp0 are required")
    return TowerConfig(args.case, args.dimV0, args.dimVp0, args.chi_minus_one)


def _tower_header(cfg: TowerConfig) -> tuple[dict, str]:
    """The tower fields that open a tower report, and their text line."""
    head = {
        "case": cfg.case.tag,
        "dimV0": cfg.dimV0,
        "dimVp0": cfg.dimVp0,
        "dimVt0": cfg.dimVt0,
        "mu": format_half(mu_of(cfg)),
    }
    return head, "case {case} towers ({dimV0}; {dimVp0}, {dimVt0}), mu={mu}".format(**head)


def cmd_first_occurrence(args) -> int:
    if args.l > MAX_OCCURRENCE_RANK:
        raise ValueError(f"--l {args.l} exceeds the first-occurrence cap {MAX_OCCURRENCE_RANK}")
    alpha, beta = _parse_partition(args.alpha), _parse_partition(args.beta)
    cfg = _tower_config(args)
    occ = first_occurrence(alpha, beta, args.l, cfg)
    head, head_line = _tower_header(cfg)
    obj = {
        **head,
        "l": args.l,
        "alpha": list(alpha),
        "beta": list(beta),
        "n": occ["n"],
        "n_tilde": occ["n_tilde"],
        "c": occ["c"],
        "mu_sigma": format_half(mu_sigma(occ["n"], occ["n_tilde"])),
    }

    def render(o):
        return (
            f"{head_line}\n"
            f"label ({o['alpha']}, {o['beta']}) of rank {o['l']}: "
            f"n={o['n']}  n_tilde={o['n_tilde']}  c={o['c']}  mu_sigma={o['mu_sigma']}"
        )

    _emit(args, obj, render)
    return 0


def cmd_conservation_scan(args) -> int:
    if args.lmax > MAX_SCAN_LMAX:
        raise ValueError(f"--lmax {args.lmax} exceeds the conservation-scan cap {MAX_SCAN_LMAX}")
    cfg = _tower_config(args)
    searches: dict = {}  # each first-occurrence search runs once per scan
    rows = [
        (l, alpha, beta, conservation_check(alpha, beta, l, cfg, searches))
        for l in range(args.lmax + 1)
        for alpha, beta in bipartitions(l)
    ]
    all_zero = all(rep["residual_double_c"] == 0 for *_, rep in rows)
    head, head_line = _tower_header(cfg)
    if args.format == "text":
        lines = [
            head_line,
            f"{'l':>2} {'alpha':<12} {'beta':<12} {'n':>3} {'nt':>3} {'c':>3} {'rhs':>4} {'r2c':>4} {'r1c':>4}",
        ]
        for l, alpha, beta, r in rows:
            lines.append(
                f"{l:>2} {str(list(alpha)):<12} {str(list(beta)):<12} {r['n']:>3} "
                f"{r['n_tilde']:>3} {r['c']:>3} {r['rhs']:>4} "
                f"{r['residual_double_c']:>4} {r['residual_single_c']:>4}"
            )
        lines.append("all double-c residuals zero" if all_zero else "NONZERO residual found")
        print("\n".join(lines))
    else:
        verdict = f',\n  "all_double_c_residuals_zero": {json.dumps(all_zero)}'
        items = (_SCAN_ROW.format(l=l, alpha=_ints(a), beta=_ints(b), **r) for l, a, b, r in rows)
        _print_json(head, "rows", items, verdict)
    return 0 if all_zero else 1


# a conservation-scan row at the depth json.dumps(indent=2) gives it
_SCAN_ROW = "    {{\n" + ",\n".join(
    f'      "{k}": {{{k}}}'
    for k in ("l", "alpha", "beta", "n", "n_tilde", "c", "rhs", "residual_double_c", "residual_single_c")
) + "\n    }}"


def _ints(p) -> str:
    """A list's JSON at the depth of a field of a list's item."""
    return "[\n" + ",\n".join([f"        {v}" for v in p]) + "\n      ]" if p else "[]"


def cmd_specialize_decompose(args) -> int:
    caps = (MAX_SPECIALIZE_RANK, "dimension", MAX_SPECIALIZE_DIM)
    _check_size("specialize-decompose", args.l, args.lprime, *caps)
    module = ThetaModule(args.l, args.lprime, _printable_mu(args)[0])
    dim, grades = module.dim, module.grade_dims()
    rep = GroupRepAtOne(module)
    del module  # frees the generic columns before the character walk
    rep.check_group_relations()
    mults = decompose(rep.character(), args.l, args.lprime)
    expected = expected_decomposition(args.l, args.lprime)
    matches = mults == expected
    obj = {
        "l": args.l,
        "lprime": args.lprime,
        "dimension": dim,
        "grades": grades,
        "multiplicities": [
            {
                "left": [list(ab[0]), list(ab[1])],
                "right": [list(apbp[0]), list(apbp[1])],
                "mult": m,
            }
            for (ab, apbp), m in sorted(mults.items())
        ],
        "matches_expected": matches,
    }

    def render(o):
        lines = [f"specialized module at ranks ({o['l']},{o['lprime']}), dimension {o['dimension']}"]
        lines += [f"  {t['left']} (x) {t['right']}  x{t['mult']}" for t in o["multiplicities"]]
        lines.append("matches predicted decomposition" if o["matches_expected"] else "MISMATCH")
        return "\n".join(lines)

    _emit(args, obj, render)
    return 0 if matches else 1


def cmd_coset(args) -> int:
    if (args.l is None) == (args.lprime is None):
        raise ValueError("give exactly one of --l (plain block) or --lprime (mixed block)")
    kind, n = ("sym_block", args.l) if args.l is not None else ("mixed_block", args.lprime)
    if args.k is not None and args.k > n:
        raise ValueError(f"--k must be at most {n}, got {args.k}")
    ks = [args.k] if args.k is not None else list(range(n + 1))
    # C(n, k) representatives per table, times 2^k head signs for the mixed block;
    # every table has one, so a rank with rank^2 past the cap is refused uncounted
    signs = 2 if kind == "mixed_block" else 1
    count = sum(math.comb(n, k) * signs**k for k in ks) if n * n <= MAX_COSET_WORK else None
    if count is None or count * n * n > MAX_COSET_WORK:
        detail = "" if count is None else f" ({count} representatives)"
        raise ValueError(
            f"coset tables at rank {n}{detail} exceed the cap: "
            f"representatives x rank^2 at most {MAX_COSET_WORK}"
        )
    tables = []
    for k in ks:
        table = coset_table(CosetSpec(kind, n, k))
        tables.append(
            {
                "kind": kind,
                "n": n,
                "k": k,
                "count": len(table),
                "reps": [{"perm": list(w), "length": size} for size, w in table],
            }
        )
    obj = {"tables": tables}

    def render(o):
        lines = []
        for t in o["tables"]:
            lines.append(f"{t['kind']} n={t['n']} k={t['k']}: {t['count']} representatives")
            lines += [f"  {r['perm']}  length {r['length']}" for r in t["reps"]]
        return "\n".join(lines)

    _emit(args, obj, render)
    return 0


def _word_tokens(text: str) -> list[str]:
    """The generator tokens of a word; e stands for the empty word."""
    return [token for token in text.replace(",", " ").split() if token != "e"]


def _parse_hecke_word(text: str, params: HeckeParams) -> list[int]:
    """The generator indices of a word's tokens, in order."""
    gens = []
    for token in _word_tokens(text):
        if token == "t":
            if params.rank < 1:
                raise ValueError("the rank-0 algebra has no flip generator t")
            g = params.rank
        # ASCII digits only: str.isdigit also takes superscripts and other scripts' digits
        elif token.startswith("s") and token[1:].isascii() and token[1:].isdigit():
            g = int(token[1:])
            if not 1 <= g < params.rank:
                raise ValueError(f"swap index out of range in token {token!r}")
        else:
            raise ValueError(f"bad generator token {token!r} (expected s<i>, t or e)")
        gens.append(g)
    return gens


def cmd_hecke_mul(args) -> int:
    l, n = args.l, len(_word_tokens(args.a)) + len(_word_tokens(args.b))
    if n > MAX_HECKE_LETTERS:
        raise ValueError(f"the words have {n} letters in all, past the hecke-mul cap {MAX_HECKE_LETTERS}")
    work = min(group_order(l), 2**n) * (n * l + l * l) if l * l <= MAX_HECKE_WORK else None
    if work is None or work > MAX_HECKE_WORK:
        raise ValueError(
            f"hecke-mul at rank {l} with {n} letters exceeds the cap: "
            f"min(|W_l|, 2^letters) x (letters x rank + rank^2) at most {MAX_HECKE_WORK}"
        )
    mu, mu_text = _printable_mu(args)
    params = HeckeParams.signed(l, mu)
    # a's element times b's is the word of a's letters and then b's
    letters = _parse_hecke_word(args.a, params) + _parse_hecke_word(args.b, params)
    terms = _support_terms(word_terms(params, letters))
    if args.format == "text":
        lines = [f"product in the rank-{l} algebra at mu={mu_text}:"]
        lines += [f"  {list(x)}: {LaurentPoly(c)}" for x, c in terms] or ["  0"]
        print("\n".join(lines))
    else:
        _print_json({"l": l, "mu": mu_text, "a": args.a, "b": args.b}, "product", _hecke_items(l, terms))
    return 0


def _support_terms(terms: dict):
    """The peel's term dicts {x: {e: c}} as pairs (x, c) in support order, by
    (length, perm), each popped from terms as it is yielded."""
    for x in sorted(sorted(terms), key=length):
        yield x, terms.pop(x)


def _hecke_items(rank: int, terms):
    """The "product" items {"perm": [...], "poly": {"e": c, ...}} of json.dumps(indent=2)
    for the pairs (x, c) of _support_terms, each exponent's key formatted once."""
    term = '    {{\n      "perm": ' + _ints(["{}"] * rank) + ',\n      "poly": {{\n{}\n      }}\n    }}'
    pre: dict[int, str] = {}  # each exponent's key
    for x, c in terms:
        lines = [(pre.get(e) or pre.setdefault(e, f'        "{e}": ')) + str(c[e]) for e in sorted(c)]
        yield term.format(*x, ",\n".join(lines))


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetahecke",
        description="Exact computations in the graded Hecke bimodule and its combinatorial shadow.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--format", choices=["json", "text"], default="json")

    p = sub.add_parser("module-verify", help="check every defining relation of the bimodule")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--lprime", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--case", choices=sorted(CASES))
    p.add_argument("--jobs", type=int, choices=[1], default=1,
                   help="always 1: the check runs in one process (kept so old command lines parse)")
    add_common(p)
    p.set_defaults(func=cmd_module_verify)

    p = sub.add_parser("theta-lift", help="lift a labeled representation across ranks")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--lprime", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_theta_lift)

    def add_tower(p):
        p.add_argument("--case", choices=sorted(CASES), required=True)
        p.add_argument("--dimV0", type=int, required=True)
        p.add_argument("--dimVp0", type=int, required=True)
        p.add_argument("--chi-minus-one", type=int, choices=[1, -1], default=None)

    p = sub.add_parser("first-occurrence", help="first-occurrence indices in both towers")
    p.add_argument("--alpha", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--l", type=int, required=True)
    add_tower(p)
    add_common(p)
    p.set_defaults(func=cmd_first_occurrence)

    p = sub.add_parser("conservation-scan", help="conservation residuals over all labels up to a rank")
    p.add_argument("--lmax", type=int, required=True)
    add_tower(p)
    add_common(p)
    p.set_defaults(func=cmd_conservation_scan)

    p = sub.add_parser("specialize-decompose", help="decompose the specialized module at nu=1")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--lprime", type=int, required=True)
    p.add_argument("--mu", default="1/2")
    add_common(p)
    p.set_defaults(func=cmd_specialize_decompose)

    p = sub.add_parser("coset", help="distinguished coset representative tables")
    p.add_argument("--l", type=int, help="plain-block subgroup of the symmetric group")
    p.add_argument("--lprime", type=int, help="mixed-block subgroup of the signed group")
    p.add_argument("--k", type=int, default=None)
    add_common(p)
    p.set_defaults(func=cmd_coset)

    p = sub.add_parser("hecke-mul", help="multiply two words in the signed Hecke algebra")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--mu", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    add_common(p)
    p.set_defaults(func=cmd_hecke_mul)

    return parser


# flags whose values may begin with a dash (negative half-integers and words);
# argparse only waves through bare negative integers, so fold these into
# --flag=value form before parsing
_VALUE_FLAGS = {"--mu", "--a", "--b", "--alpha", "--beta", "--chi-minus-one"}


def _merge_dash_values(argv: list[str]) -> list[str]:
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        nxt = argv[i + 1] if i + 1 < len(argv) else None
        if tok in _VALUE_FLAGS and nxt is not None and nxt.startswith("-") and nxt != "-":
            out.append(f"{tok}={nxt}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


# integer flags that name a rank (or a grade, for coset --k)
_RANK_FLAGS = ("l", "lprime", "lmax", "k")


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    args = build_parser().parse_args(_merge_dash_values(argv))
    try:
        for name in _RANK_FLAGS:
            value = getattr(args, name, None)
            if value is not None and value < 0:
                raise ValueError(f"--{name} must be non-negative, got {value}")
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationError as exc:
        print(f"FAIL: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
