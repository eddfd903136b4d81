"""A fixed piece of pure-Python work that measures how fast the machine runs right now.

The host this benchmark runs on is shared, and its speed drifts by a quarter
or more over minutes, so two runs of the same code can differ by that much.
Every invocation times ``reference()`` in its own process just before and
just after ``cli.main``.  run.py divides the invocation's times by the mean of
those two reference times and multiplies by ``NOMINAL_S``, which reports them
at one fixed machine speed.  The work is independent of the thetahecke
package, so no change to the package moves it; it uses the same kinds of
operations as the package (integer-keyed dict products, tuple permutations,
Fractions) so that it slows down the way the package does.  It allocates well
under 1 MB, so it leaves the invocation's peak RSS as it is.
"""

from __future__ import annotations

import time
from fractions import Fraction

# the median reference time of a quiet 2-vCPU x86-64 VM under CPython 3.11;
# the scaled times read as seconds on a machine of that speed
NOMINAL_S = 0.04


def _poly_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            k = e1 + e2
            out[k] = out.get(k, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def _compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(p[abs(i) - 1] * (1 if i > 0 else -1) for i in q)


def _round() -> int:
    check = 0
    a = {e: (e * 7919) % 13 - 6 for e in range(-40, 40, 2)}
    b = {e: (e * 104729) % 11 - 5 for e in range(-20, 40, 3)}
    for _ in range(4):
        c = _poly_mul(a, b)
        check += len(c) + sum(c.values()) % 1009
        b = {k: v % 97 - 48 for k, v in list(c.items())[: len(b)]}
    perm = (2, -1, 3, -5, 4, 6)
    word = (1, 2, 3, 4, 5, 6)
    seen: dict[tuple[int, ...], int] = {}
    for i in range(6000):
        word = _compose(perm, word)
        seen[word] = seen.get(word, 0) + i
    check += len(seen)
    total = Fraction(0)
    for n in range(1, 900):
        total += Fraction((-1) ** n, n * (n + 1))
    check += total.denominator % 1009
    return check


def work() -> int:
    """The fixed work; returns a checksum so that none of it is skipped."""
    return sum(_round() for _ in range(4))


def reference() -> tuple[float, float]:
    """Wall and CPU seconds of one call of work()."""
    w0, c0 = time.perf_counter(), time.process_time()
    work()
    return time.perf_counter() - w0, time.process_time() - c0
