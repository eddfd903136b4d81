"""Run one thetahecke CLI invocation in this fresh interpreter and report on it.

usage: python3 bench/child.py <trace 0|1> <cli argument>...

The CLI's stdout is captured.  This process prints one JSON record instead:
the exit code, the time to import ``thetahecke.cli``, the wall time inside
``cli.main``, the wall and CPU times of the reference work (reference.py) run
just before and just after ``cli.main``, the stdout digest and size, the peak
RSS and, when tracing, the per-layer stats.  An exception or ``SystemExit``
inside the CLI ends the process without a record, which run.py counts as a
failure.
"""

from __future__ import annotations

import hashlib
import io
import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    trace = sys.argv[1] == "1"
    argv = sys.argv[2:]
    src = ROOT / "src"
    sys.path.insert(0, str(src))

    t0 = time.perf_counter()
    import thetahecke.cli as cli

    import_s = time.perf_counter() - t0
    if not Path(cli.__file__).resolve().is_relative_to(src):
        print(f"error: imported thetahecke from {cli.__file__}, not from {src}", file=sys.stderr)
        return 3

    # imported after the timed import, so that import_s still pays for fractions
    from reference import reference

    ref_before = reference()

    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    captured = io.StringIO()
    with redirect_stdout(captured):
        t1 = time.perf_counter()
        rc = cli.main(argv)
        main_s = time.perf_counter() - t1
    ref_after = reference()
    out = captured.getvalue().encode()

    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record = {
        "exit": rc,
        "import_s": import_s,
        "ref_s": [ref_before[0], ref_after[0]],
        "ref_cpu_s": [ref_before[1], ref_after[1]],
        "main_s": main_s,
        "stdout_sha256": hashlib.sha256(out).hexdigest(),
        "stdout_bytes": len(out),
        "peak_rss_mb": peak_kb / 1024,
    }
    if tracer is not None:
        record["layers"] = tracer.collect()
    print(json.dumps(record))
    return rc


if __name__ == "__main__":
    raise SystemExit(main())
