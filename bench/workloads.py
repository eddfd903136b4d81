"""The benchmark's workloads: which CLI invocations each one runs, and why.

A workload's seed picks the acceptance parameters of its seeded rows and the
order of its invocations.  Every module-verify invocation pins ``--jobs 1`` so
that all layer work runs in the measured process.  Shapes above dimension 300
are left out: the CLI sends them to point mode, which takes minutes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

# the thirteen acceptance parameters of the relation suite
ACCEPTANCE_MUS = ("1/2", "-1/2", "3/2", "-3/2", "1", "-1", "3", "-3", "0", "2", "-2", "4", "-4")

# a reduced word of the longest element of the rank-5 signed group (t is the flip)
LONGEST_RANK5 = "s1 s2 s1 s3 s2 s1 s4 s3 s2 s1 t s4 s3 s2 s1 t s4 s3 s2 t s4 s3 t s4 t"


def verify(l: int, lp: int, mu: str) -> list[str]:
    return ["module-verify", "--l", str(l), "--lprime", str(lp), "--mu", mu, "--jobs", "1"]


def specialize(l: int, lp: int, mu: str = "1/2") -> list[str]:
    return ["specialize-decompose", "--l", str(l), "--lprime", str(lp), "--mu", mu]


def scan(case: str, dim_v0: int, dim_vp0: int, *extra: str) -> list[str]:
    return ["conservation-scan", "--lmax", "8", "--case", case,
            "--dimV0", str(dim_v0), "--dimVp0", str(dim_vp0), *extra]


def hecke_longest(mu: str) -> list[str]:
    return ["hecke-mul", "--l", "5", "--mu", mu, "--a", LONGEST_RANK5, "--b", LONGEST_RANK5]


@dataclass(frozen=True)
class Seeded:
    """A row run at `count` distinct acceptance parameters chosen by the seed."""

    build: Callable[[str], list[str]]
    count: int
    choices: tuple[str, ...] = ACCEPTANCE_MUS


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loads: tuple[str, ...]
    bypasses: tuple[str, ...]
    fixed: list[list[str]]
    seeded: list[Seeded]

    def invocations(self, seed: int) -> list[list[str]]:
        """The argv lists of one pass, in the seed's order."""
        rng = random.Random(seed)
        out = list(self.fixed)
        for row in self.seeded:
            out += [row.build(mu) for mu in rng.sample(row.choices, row.count)]
        rng.shuffle(out)
        return out

    def all_invocations(self) -> list[list[str]]:
        """Every argv list any seed can produce (for recording golden outputs)."""
        out = list(self.fixed)
        for row in self.seeded:
            out += [row.build(mu) for mu in row.choices]
        return out


_NOT_HALF = tuple(mu for mu in ACCEPTANCE_MUS if mu != "1/2")
# at mu = 0 and mu = +-1 the flip's parameter collapses onto 1 or onto the swaps'
# nu, so the rank-5 product has fewer distinct terms and runs 20-40% faster;
# drawing from the generic parameters keeps the seed from moving wall_s
_GENERIC = tuple(mu for mu in _NOT_HALF if mu not in ("0", "1", "-1"))

WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="verify",
            why="the paper's headline proof on the symbolic path: every bimodule relation "
            "at (3,3) for all 13 acceptance mu and at (2,8) for two seeded mu",
            loads=("laurent", "weylbc", "heckealg", "thetamod", "cli"),
            bypasses=("bipartition", "dualpair"),
            fixed=[verify(3, 3, mu) for mu in ACCEPTANCE_MUS],
            seeded=[Seeded(lambda mu: verify(2, 8, mu), 2)],
        ),
        Workload(
            name="specialize",
            why="the same thetamod columns used at nu = 1: dense matrices, group relations, "
            "character and decomposition, with no Laurent relation checks",
            loads=("laurent", "weylbc", "heckealg", "thetamod", "bipartition", "cli"),
            bypasses=("dualpair",),
            fixed=[specialize(2, 6), specialize(2, 5), specialize(5, 2), specialize(4, 2),
                   specialize(3, 3)],
            seeded=[Seeded(lambda mu: specialize(3, 3, mu), 1, _NOT_HALF)],
        ),
        Workload(
            name="combinatorics",
            why="bypasses thetamod: tower conservation scans, coset tables and a dense "
            "rank-5 Hecke product, so a verification speed-up should not move it",
            loads=("laurent", "weylbc", "heckealg", "bipartition", "dualpair", "cli"),
            bypasses=("thetamod",),
            fixed=[scan("A", 0, 1), scan("B", 1, 0), scan("C", 0, 0),
                   scan("Ct", 0, 1, "--chi-minus-one", "1"), scan("D", 0, 0),
                   hecke_longest("1/2"), ["coset", "--lprime", "6"], ["coset", "--l", "8"]],
            seeded=[Seeded(hecke_longest, 1, _GENERIC)],
        ),
    ]
}
