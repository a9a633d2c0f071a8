"""One run of one workload, in a fresh process.

    python3 bench/worker.py --root DIR --workload NAME --seed N --trace 0|1

Imports matchgap from ``DIR/src``, builds and validates the workload's
instances (set-up), then runs the workload's commands through
``matchgap.cli.main`` one after another, capturing their stdout and
stderr.  Prints one JSON object: set-up and wall seconds, peak resident
memory, per-command exit code and output, and with ``--trace 1`` the
per-layer metrics and span tree.

The shared machine this benchmark was sized on runs 1.2-1.7x slower for
seconds to minutes at a time.  So the worker also times a fixed
calibration loop before the first command and after every command, and
reports set-up and wall time in reference seconds as well: each command's
measured seconds x ``CALIBRATION_REF_S`` / the mean of the calibrations on
either side of it (set-up uses the first).  The loop is the benchmark's
own code, so a change to matchgap cannot move it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads

#: Median seconds of ``calibration_s``'s loop on the box the benchmark was
#: sized on (2 vCPUs, Python 3.11.7, numpy 2.4.6) when uncontended.
CALIBRATION_REF_S = 0.04


def calibration_s(repeats: int = 5) -> float:
    """Median seconds of a fixed loop that mixes interpreter work (dict
    updates) with numpy uint64 mixing, the two kinds of work the
    workloads do."""
    import numpy as np

    mul = np.uint64(0x9E3779B97F4A7C15)
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        d: dict[int, int] = {}
        for i in range(150_000):
            k = i & 1023
            d[k] = d.get(k, 0) + i
        a = np.arange(1 << 12, dtype=np.uint64)  # small: must not raise peak RSS
        with np.errstate(over="ignore"):
            for _ in range(1024):
                a = (a ^ (a >> np.uint64(29))) * mul
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    t0 = time.perf_counter()
    workloads.import_matchgap(Path(args.root))
    from matchgap import cli, model
    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
        tracer.install("matchgap")
    workloads.setup(cli, model, args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    setup_spans = len(tracer.spans) if tracer else 0

    calibs = [calibration_s()]
    results = []
    for name, argv in workloads.commands(args.workload, args.seed):
        out, err = io.StringIO(), io.StringIO()
        exc = None
        c0 = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = tracer.span("cli", cli.main, argv) if tracer else cli.main(argv)
            except (Exception, SystemExit) as e:  # a failed operation, not a crash
                rc, exc = None, repr(e)
        results.append({"name": name, "rc": rc, "exception": exc,
                        "seconds": time.perf_counter() - c0,
                        "stdout": out.getvalue(), "stderr": err.getvalue()})
        calibs.append(calibration_s())
    # ru_maxrss is in KiB on Linux; MB (1e6 bytes) like sampling.block_mb
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    # each command's seconds are scaled by the calibrations on either side
    wall_s = sum(r["seconds"] for r in results)
    wall_ref_s = sum(r["seconds"] * CALIBRATION_REF_S * 2 / (calibs[i] + calibs[i + 1])
                     for i, r in enumerate(results))

    import numpy
    payload = {"setup_s": setup_s * CALIBRATION_REF_S / calibs[0], "wall_s": wall_ref_s,
               "setup_raw_s": setup_s, "wall_raw_s": wall_s,
               "calibration_s": statistics.median(calibs),
               "peak_rss_mb": peak_rss_mb,
               "traced": bool(tracer), "commands": results,
               "python": platform.python_version(), "numpy": numpy.__version__}
    if tracer:
        cli_bytes = sum(len(r["stdout"].encode()) for r in results)
        cli_failed = sum(r["rc"] != 0 for r in results)
        payload["layers"] = tracer.layer_metrics(setup_spans, cli_bytes, cli_failed)
        payload["span_tree"] = tracer.span_tree()
        payload["spans"] = len(tracer.spans)
        if args.spans_out:
            tracer.write_spans(args.spans_out)
    sys.stdout.write(json.dumps(payload) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
