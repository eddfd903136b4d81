"""Benchmark of the thetahecke CLI, driven from outside as a closed loop with one client.

run.py runs one CLI invocation at a time.  Each invocation runs in a fresh
interpreter (bench/child.py) that calls ``thetahecke.cli.main(argv)``, so it
starts with cold caches as a user's shell command does.  Every invocation is
checked: exit code 0, no traceback, and stdout equal to the golden digest
recorded in bench/golden.json.

usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --workload all --seed N --seconds S --trace 0|1
  python3 bench/run.py --record-golden

With --trace 0 run.py runs passes over the workload's invocations until
--seconds have passed and reports the end-to-end metrics, with every time
scaled to a fixed reference speed (see reference.py and e2e_metrics).  The first pass
always completes; a later pass stops where the time runs out.  With --trace 1
it runs one untraced pass and two traced passes, whatever --seconds says, and
reports the per-layer metrics; the two traced passes must agree on every count.
The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
from reference import NOMINAL_S
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PACKAGE = ROOT / "src" / "thetahecke"
GOLDEN = BENCH / "golden.json"
CHILD_TIMEOUT_S = 170

# (name, unit); every one is lower-is-better.  fail_ratio is printed in the
# table but left out of the JSON metrics: it reads 0 on a correct program, and
# the JSON's attempted and failed carry it.
E2E_METRICS = [("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]


@dataclasses.dataclass
class Outcome:
    """One invocation as run.py saw it."""

    argv: list[str]
    exit: int
    stderr: str
    record: dict | None
    cpu_s: float


def golden_key(argv: list[str]) -> str:
    return json.dumps(argv)


def run_child(argv: list[str], trace: bool) -> Outcome:
    cmd = [sys.executable, str(BENCH / "child.py"), "1" if trace else "0", *argv]
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        exit_code, stdout, stderr = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        exit_code, stdout, stderr = -9, "", f"timed out after {exc.timeout}s"
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    record = None
    lines = stdout.strip().splitlines()
    if lines:
        try:
            record = json.loads(lines[-1])
        except ValueError:
            record = None
    return Outcome(argv, exit_code, stderr, record, cpu)


def check(outcome: Outcome, golden: dict) -> str | None:
    """Why the invocation failed, or None when it passed."""
    if outcome.exit != 0:
        return f"exit code {outcome.exit}"
    if "Traceback (most recent call last)" in outcome.stderr:
        return "traceback on stderr"
    if not isinstance(outcome.record, dict) or outcome.record.get("exit") != 0:
        return "no result record"
    expected = golden.get(golden_key(outcome.argv))
    if expected is None:
        return "no golden output recorded"
    if outcome.record["stdout_sha256"] != expected:
        return "stdout differs from the golden output"
    return None


def negative_controls(outcome: Outcome, golden: dict) -> list[str]:
    """Tamper with a passing invocation in three ways; return the tamperings
    that check() failed to report."""
    tampered = dict(golden)
    tampered[golden_key(outcome.argv)] = hashlib.sha256(b"tampered").hexdigest()
    controls = {
        "tampered golden": (outcome, tampered),
        "wrong exit code": (dataclasses.replace(outcome, exit=1), golden),
        "traceback": (
            dataclasses.replace(outcome, stderr=outcome.stderr + "Traceback (most recent call last):\n"),
            golden,
        ),
    }
    return [name for name, (o, g) in controls.items() if check(o, g) is None]


class Tally:
    """Attempted and failed invocations of one run."""

    def __init__(self, golden: dict):
        self.golden = golden
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def run_pass(self, invocations: list[list[str]], trace: bool, label: str, deadline: float | None = None
                 ) -> list[Outcome]:
        """Run the invocations in order; with a deadline, start none after it."""
        t0 = time.perf_counter()
        outcomes = []
        for argv in invocations:
            if deadline is not None and time.perf_counter() >= deadline:
                break
            outcome = run_child(argv, trace)
            self.attempted += 1
            reason = check(outcome, self.golden)
            if reason is not None:
                self.failed += 1
                print(f"FAIL {' '.join(argv)}: {reason}\n{outcome.stderr[-2000:]}", file=sys.stderr)
            elif self.attempted == 1:
                missed = negative_controls(outcome, self.golden)
                self.problems += [f"negative control passed silently: {m}" for m in missed]
            outcomes.append(outcome)
        print(
            f"{label}: {len(outcomes)} invocations in {time.perf_counter() - t0:.1f}s, "
            f"{pass_wall_s(outcomes):.3f}s inside cli.main",
            file=sys.stderr,
        )
        return outcomes


def _records(outcomes: list[Outcome]) -> list[dict]:
    return [o.record for o in outcomes if isinstance(o.record, dict)]


def pass_wall_s(outcomes: list[Outcome]) -> float:
    return sum(r["main_s"] for r in _records(outcomes))


def per_invocation(passes: list[list[Outcome]]) -> list[list[Outcome]]:
    """Outcomes grouped by invocation; the last pass may have stopped early."""
    return [[p[i] for p in passes if i < len(p)] for i in range(len(passes[0]))]


def median_pass(passes: list[list[Outcome]], value) -> float:
    """Sum over a pass's invocations of each invocation's median over passes;
    steadier than the median of pass sums when a slow spell hits part of a pass."""
    total = 0.0
    for same_argv in per_invocation(passes):
        values = [value(o) for o in same_argv if isinstance(o.record, dict)]
        if values:
            total += statistics.median(values)
    return total


def e2e_metrics(passes: list[list[Outcome]]) -> tuple[dict[str, float], dict[str, float]]:
    """The end-to-end metrics at the reference speed, and the raw times.

    The shared host's speed drifts within and between runs, so every time is
    taken relative to the reference work (reference.py) that the same process
    ran just before and just after cli.main, and reported in units of
    NOMINAL_S: wall and import times against the reference's wall time, CPU
    time against its CPU time.
    """
    def wall_slowdown(o: Outcome) -> float:
        return statistics.fmean(o.record["ref_s"]) / NOMINAL_S

    def cpu_slowdown(o: Outcome) -> float:
        return statistics.fmean(o.record["ref_cpu_s"]) / NOMINAL_S

    def cpu(o: Outcome) -> float:
        # the child's CPU time less the reference work it ran
        return o.cpu_s - sum(o.record["ref_cpu_s"])

    records = [o for p in passes for o in p if isinstance(o.record, dict)]
    metrics = {
        "wall_s": median_pass(passes, lambda o: o.record["main_s"] / wall_slowdown(o)),
        "cpu_s": median_pass(passes, lambda o: cpu(o) / cpu_slowdown(o)),
        "setup_s": statistics.median(o.record["import_s"] / wall_slowdown(o) for o in records),
        "peak_rss_mb": max(o.record["peak_rss_mb"] for o in records),
    }
    raw = {
        "wall_s": median_pass(passes, lambda o: o.record["main_s"]),
        "cpu_s": median_pass(passes, cpu),
        "setup_s": statistics.median(o.record["import_s"] for o in records),
        "reference_s": statistics.median(statistics.fmean(o.record["ref_s"]) for o in records),
    }
    return metrics, raw


def layer_metrics(untraced: list[Outcome], traced: list[list[Outcome]], tally: Tally) -> tuple[dict, list]:
    """Per-layer values from two traced passes; counts must agree exactly."""
    totals, absent = [], set()
    for outcomes in traced:
        total: dict = {}
        for r in _records(outcomes):
            tracer.merge(total, r["layers"]["stats"])
            absent.update(r["layers"]["absent"])
        totals.append(total)
    first, second = totals
    for stat in sorted(set(first) | set(second)):
        for field in tracer.COUNT_FIELDS:
            a = first.get(stat, {}).get(field)
            b = second.get(stat, {}).get(field)
            if a != b:
                tally.problems.append(f"traced passes disagree on {stat}.{field}: {a} != {b}")
    bytes_per_pass = [sum(r["stdout_bytes"] for r in _records(p)) for p in traced]
    if bytes_per_pass[0] != bytes_per_pass[1]:
        tally.problems.append(f"traced passes disagree on stdout bytes: {bytes_per_pass}")

    values = tracer.layer_values(first, absent)
    for name, value in tracer.layer_values(second, absent).items():
        if name.endswith(".self_s"):
            values[name] = (values[name] + value) / 2
    values["cli.stdout_bytes"] = bytes_per_pass[0]
    traced_wall = statistics.mean(pass_wall_s(p) for p in traced)
    values["trace.overhead_ratio"] = traced_wall / pass_wall_s(untraced)
    return values, sorted(absent)


def warm_up() -> None:
    """Import the package once, unmeasured, so bytecode is compiled before timing."""
    code = "import sys; sys.path.insert(0, 'src'); import thetahecke.cli"
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True, timeout=CHILD_TIMEOUT_S)


def run_workload(name: str, seed: int, seconds: float, trace: bool, golden: dict) -> dict:
    workload = WORKLOADS[name]
    invocations = workload.invocations(seed)
    tally = Tally(golden)
    warm_up()
    if trace:
        untraced = tally.run_pass(invocations, False, f"{name} untraced pass")
        traced = [tally.run_pass(invocations, True, f"{name} traced pass {i + 1}") for i in range(2)]
        values, absent = layer_metrics(untraced, traced, tally)
        raw = {}
        units = {n: u for n, u, _ in tracer.layer_metric_specs()}
        passes = 1 + len(traced)
    else:
        start = time.perf_counter()
        runs = []
        # the first pass always completes, so every invocation is measured once
        while not runs or time.perf_counter() - start < seconds:
            deadline = start + seconds if runs else None
            runs.append(tally.run_pass(invocations, False, f"{name} pass {len(runs) + 1}", deadline))
        values, raw = e2e_metrics(runs)
        absent = []
        units = dict(E2E_METRICS)
        passes = len(runs)
        for argv, same_argv in zip(invocations, per_invocation(runs)):
            times = [o.record["main_s"] for o in same_argv if isinstance(o.record, dict)]
            if times:
                print(f"  {statistics.median(times):8.3f}s  {' '.join(argv)}", file=sys.stderr)

    info = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": passes,
        "why": workload.why,
        "loads": workload.loads,
        "bypasses": workload.bypasses,
        "invocations": invocations,
        "absent_layer_metrics": absent,
        "raw_times_s": raw,
        **environment(),
    }
    print(json.dumps(info))
    print(f"{name} (seed {seed}, {passes} pass(es) of {len(invocations)} invocations):")
    for metric, value in values.items():
        print(f"  {metric:<40} {value:>14.6g} {units[metric]}")
    print(f"  {'fail_ratio':<40} {tally.failed / tally.attempted:>14.6g} ratio")
    for problem in tally.problems:
        print(f"error: {problem}", file=sys.stderr)
    return {
        "correct": tally.failed == 0 and not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m: {"value": v, "unit": units[m]} for m, v in values.items()},
    }


def environment() -> dict:
    def version(dist: str) -> str:
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "commit": git_commit(),
        "source_sha256": digest.hexdigest(),
    }


def git_commit() -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def record_golden() -> int:
    """Run every invocation any seed can produce once and store its stdout digest."""
    golden = {}
    argvs = {golden_key(a): a for w in WORKLOADS.values() for a in w.all_invocations()}
    warm_up()
    for key, argv in sorted(argvs.items()):
        outcome = run_child(argv, False)
        reason = check(outcome, {key: outcome.record["stdout_sha256"]} if outcome.record else {})
        if reason is not None:
            print(f"error: {' '.join(argv)}: {reason}\n{outcome.stderr[-2000:]}", file=sys.stderr)
            return 1
        golden[key] = outcome.record["stdout_sha256"]
        print(f"recorded {' '.join(argv)}", file=sys.stderr)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(golden)} digests to {GOLDEN.relative_to(ROOT)}")
    return 0


def check_spec() -> str | None:
    """Compare the metric names in BENCHMARK.json with the ones run.py reports."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pairs = [
        ("workloads", [w["name"] for w in spec["workloads"]], list(WORKLOADS)),
        ("end_to_end", [m["name"] for m in spec["end_to_end"]], [n for n, _ in E2E_METRICS]),
        ("per_layer", [m["name"] for m in spec["per_layer"]], [n for n, _, _ in tracer.layer_metric_specs()]),
    ]
    for section, listed, reported in pairs:
        if listed != reported:
            return f"BENCHMARK.json {section} {listed} differ from the reported {reported}"
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-golden", action="store_true", help="rewrite bench/golden.json")
    args = parser.parse_args()

    if not (PACKAGE / "cli.py").is_file():
        print(f"error: no thetahecke package under {PACKAGE.parent}", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden()
    if args.workload is None:
        parser.error("--workload is required")
    if not GOLDEN.is_file():
        print(f"error: {GOLDEN.relative_to(ROOT)} is missing; run --record-golden", file=sys.stderr)
        return 2
    problem = check_spec()
    if problem is not None:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_workload(n, args.seed, args.seconds, bool(args.trace), golden) for n in names}
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
