"""Per-layer counters and spans around the thetahecke package, installed from outside.

The tracer wraps the public functions and methods named in TARGETS after the
package is imported.  A function is replaced in every ``thetahecke.*`` module
namespace that holds the same object (``from .weylbc import mul`` binds a second
name for it), and a method is replaced on its class.  A target that no longer
exists is reported as absent instead of failing the run, so a refactor that
removes one leaves the other metrics intact.

A span's self time is its duration minus the time its child spans cover.
Count-only targets are not spans: their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "thetahecke"

# (stat, module, attribute, reported stats).  Several attributes may share a
# stat; their calls and times add up.  "hit_ratio" comes from the original
# lru_cache's cache_info() where there is one, else from 1 - distinct/calls.
TARGETS = [
    ("laurent.new", "laurent", "LaurentPoly.__init__", ("calls",)),
    ("laurent.mul", "laurent", "LaurentPoly.__mul__", ("calls", "self_s")),
    ("laurent.add", "laurent", "LaurentPoly.__add__", ("calls", "self_s")),
    ("laurent.specialize_nu1", "laurent", "LaurentPoly.specialize_nu1", ("calls",)),
    ("thetamod.module_init", "thetamod", "ThetaModule.__init__", ("self_s",)),
    ("thetamod.column", "thetamod", "ThetaModule.column",
     ("calls", "distinct", "hit_ratio", "nnz", "self_s")),
    ("thetamod.seed_flip", "thetamod", "ThetaModule.seed_flip_top", ("calls", "self_s")),
    ("thetamod.seed_flip", "thetamod", "ThetaModule.seed_flip_inner", ("calls", "self_s")),
    ("thetamod.apply_gen", "thetamod", "ThetaModule.apply_gen", ("calls", "self_s")),
    ("thetamod.relation_sides", "thetamod", "ThetaModule.relation_sides", ("calls", "self_s")),
    ("thetamod.verify_relations", "thetamod", "ThetaModule.verify_relations", ("self_s",)),
    ("thetamod.matrices_at_one", "thetamod", "ThetaModule.matrices_at_one", ("self_s",)),
    ("thetamod.group_relations", "thetamod", "GroupRepAtOne.check_group_relations", ("self_s",)),
    ("thetamod.character", "thetamod", "GroupRepAtOne.character", ("self_s",)),
    ("thetamod.rep_word", "thetamod", "GroupRepAtOne.rep_left", ("calls",)),
    ("thetamod.rep_word", "thetamod", "GroupRepAtOne.rep_right", ("calls",)),
    ("weylbc.deodhar_transfer", "weylbc", "deodhar_transfer", ("calls", "self_s")),
    ("weylbc.reduced_word", "weylbc", "reduced_word", ("calls", "self_s")),
    ("weylbc.mul", "weylbc", "mul", ("calls", "self_s")),
    ("weylbc.length", "weylbc", "length", ("calls", "self_s")),
    ("weylbc.distinguished_reps", "weylbc", "distinguished_reps", ("calls", "self_s", "hit_ratio")),
    ("weylbc.conjugacy_classes", "weylbc", "conjugacy_classes", ("calls", "self_s")),
    ("heckealg.basis_product", "heckealg", "basis_product", ("calls", "self_s")),
    ("heckealg.he_mul", "heckealg", "he_mul", ("calls", "self_s")),
    ("heckealg.he_inv_basis", "heckealg", "he_inv_basis", ("calls", "self_s")),
    ("bipartition.decompose", "bipartition", "decompose", ("self_s",)),
    ("bipartition.expected_decomposition", "bipartition", "expected_decomposition", ("self_s",)),
    ("bipartition.wl_char", "bipartition", "wl_char", ("calls", "self_s", "hit_ratio")),
    ("bipartition.sn_char", "bipartition", "sn_char", ("hit_ratio",)),
    ("bipartition.theta_lift", "bipartition", "theta_lift", ("calls", "self_s")),
    ("bipartition.pieri_remove", "bipartition", "pieri_remove", ("calls", "self_s")),
    ("dualpair.conservation_check", "dualpair", "conservation_check", ("calls", "self_s")),
    ("dualpair.first_occurrence", "dualpair", "first_occurrence", ("calls", "self_s")),
    ("cli.main", "cli", "main", ("self_s",)),
]

UNITS = {
    "calls": ("count", "lower"),
    "distinct": ("count", "lower"),
    "nnz": ("count", "lower"),
    "self_s": ("s", "lower"),
    "hit_ratio": ("ratio", "higher"),
}

# metrics the run adds around the traced stats
EXTRA_METRICS = [
    ("cli.stdout_bytes", "bytes", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# counts that must repeat exactly between two traced passes of one seed
COUNT_FIELDS = ("calls", "distinct", "nnz", "hits", "misses")


def layer_metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    seen: dict[str, tuple[str, str]] = {}
    for stat, _, _, reported in TARGETS:
        for field in reported:
            seen.setdefault(f"{stat}.{field}", UNITS[field])
    return [(name, unit, better) for name, (unit, better) in seen.items()] + EXTRA_METRICS


def _new_stat() -> dict:
    return {"calls": 0, "self_s": 0.0, "distinct": 0, "nnz": 0, "hits": 0, "misses": 0}


class Tracer:
    """Installs the wrappers in this process and collects their stats."""

    def __init__(self):
        self.stats: dict[str, dict] = {}
        self.absent: list[str] = []
        self._caches: dict[str, list] = {}
        # open spans' child time; the bottom entry collects top-level spans
        self._stack = [0.0]

    def install(self) -> None:
        for stat, module, attr, reported in TARGETS:
            mod = sys.modules.get(f"{PACKAGE}.{module}")
            owner, _, name = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            orig = holder.__dict__.get(name) if holder is not None else None
            if orig is None:
                self.absent.append(f"{module}.{attr}")
                continue
            self.stats.setdefault(stat, _new_stat())
            if "hit_ratio" in reported and hasattr(orig, "cache_info"):
                self._caches.setdefault(stat, []).append(orig)
            if not set(reported) - {"hit_ratio"}:
                continue
            if "distinct" in reported:
                wrapper = self._memo_span(orig, self.stats[stat])
            elif "self_s" in reported:
                wrapper = self._span(orig, self.stats[stat])
            else:
                wrapper = self._counter(orig, self.stats[stat])
            if owner:
                setattr(holder, name, wrapper)
            else:
                self._rebind(orig, wrapper)

    def _rebind(self, orig, wrapper) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)

    def _counter(self, fn, stat: dict):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stat["calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, fn, stat: dict):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                took = clock() - t0
                stat["calls"] += 1
                stat["self_s"] += took - stack.pop()
                stack[-1] += took

        return wrapper

    def _memo_span(self, fn, stat: dict):
        """A span that also counts distinct (instance, arguments) and the
        size of each distinct result, for memoised methods."""
        span = self._span(fn, stat)
        seen: set = set()

        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            result = span(obj, *args, **kwargs)
            key = (id(obj), args, tuple(sorted(kwargs.items())))
            if key not in seen:
                seen.add(key)
                stat["distinct"] += 1
                stat["nnz"] += len(result)
            return result

        return wrapper

    def collect(self) -> dict:
        """{"stats": {stat: {...}}, "absent": [...]} for this process."""
        for stat, fns in self._caches.items():
            for fn in fns:
                info = fn.cache_info()
                self.stats[stat]["hits"] += info.hits
                self.stats[stat]["misses"] += info.misses
        return {"stats": self.stats, "absent": self.absent}


def merge(into: dict, stats: dict) -> None:
    """Add one process's stats into a pass total."""
    for stat, fields in stats.items():
        acc = into.setdefault(stat, _new_stat())
        for field, value in fields.items():
            acc[field] += value


def layer_values(total: dict, absent: set[str]) -> dict[str, float]:
    """Per-layer metric values from a pass total; absent targets are left out."""
    out: dict[str, float] = {}
    absent_stats = {stat for stat, module, attr, _ in TARGETS if f"{module}.{attr}" in absent}
    for stat, _, _, reported in TARGETS:
        if stat in absent_stats or stat not in total:
            continue
        s = total[stat]
        for field in reported:
            if field == "hit_ratio":
                lookups = s["hits"] + s["misses"]
                if lookups:
                    value = s["hits"] / lookups
                else:
                    value = 1 - s["distinct"] / s["calls"] if s["calls"] else 0.0
            else:
                value = s[field]
            out[f"{stat}.{field}"] = value
    return out
