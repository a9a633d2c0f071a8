"""matchgap benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each workload run executes in a fresh
worker process (``worker.py``) so that its peak resident memory belongs
to it alone; worker runs repeat one after another until ``--seconds`` have
passed (at least ``MIN_RUNS``).  BLAS threads are pinned to 1.

With ``--trace 0`` the last stdout line reports the end-to-end metrics:
``wall_s``, ``setup_s`` (medians over the worker runs, in reference
seconds, see ``worker.py``), ``peak_rss_mb`` (median) and ``ok_frac``
(operations that passed over operations attempted; reported instead of
``failed_frac``, which reads 0 on the mc workloads and so has no share by
which it could get worse).  The lines above it
also give the plain measured seconds and ``failed_frac``, each with its
run count.  With ``--trace 1`` untraced and traced worker runs
alternate; the last line reports the per-layer metrics of the traced runs
and ``trace.overhead_frac``, and the traced runs must print the same bytes
as the untraced ones.

Every command's output is checked (see ``workloads.py``).  A command that
exits non-zero, raises, or fails its checks is a failed operation.  The
run is ``correct`` when every failure is one listed in
``workloads.KNOWN_DEFECTS``.  A results file with a provenance block is
written to ``.bench_results/`` under the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
RESULTS = ROOT / ".bench_results"
MIN_RUNS = 3
WORKER_TIMEOUT_S = 150

END_TO_END = ("wall_s", "setup_s", "peak_rss_mb", "ok_frac")
#: what a worker run measures; *_raw_s are plain seconds, wall_s and setup_s
#: are in reference seconds (see worker.py)
MEASURED_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "wall_raw_s": "s",
                  "setup_raw_s": "s", "calibration_s": "s"}
#: per-layer metric units; counts repeat exactly for a fixed seed
LAYER_UNITS = {
    "rng.hashes": "count", "rng.calls": "count", "rng.busy_s": "s",
    "rng.hashes_per_s": "1/s",
    "sampling.rows": "count", "sampling.self_s": "s", "sampling.rows_per_s": "1/s",
    "sampling.realized_frac": "frac", "sampling.block_mb": "MB",
    "matching.kuhn.solves": "count", "matching.kuhn.busy_s": "s",
    "matching.kuhn.graphs_per_s": "1/s",
    "matching.primal_dual.solves": "count", "matching.primal_dual.busy_s": "s",
    "matching.primal_dual.graphs_per_s": "1/s",
    "matching.general.solves": "count", "matching.general.busy_s": "s",
    "matching.subset_sweep.masks": "count", "matching.subset_sweep.busy_s": "s",
    "matching.subset_sweep.masks_per_s": "1/s", "matching.failed": "count",
    "schemes.calls": "count", "schemes.busy_s": "s",
    "kernels.checks": "count", "kernels.failed_checks": "count", "kernels.busy_s": "s",
    "estimate.calls": "count", "estimate.samples": "count", "estimate.masks": "count",
    "estimate.self_s": "s",
    "gallery.gen_s": "s", "model.validate_s": "s",
    "cli.self_s": "s", "cli.bytes_out": "count", "cli.failed": "count",
    "trace.overhead_frac": "frac",
}
#: per-layer metrics that must repeat exactly between runs of one seed
EXACT_LAYER_METRICS = sorted(
    [k for k, u in LAYER_UNITS.items() if u == "count"]
    + ["sampling.realized_frac", "sampling.block_mb"])


def run_worker(workload: str, seed: int, traced: bool, spans_out: Path | None) -> dict:
    env = dict(os.environ, **workloads.BLAS_ENV)
    cmd = [sys.executable, str(BENCH / "worker.py"), "--root", str(ROOT),
           "--workload", workload, "--seed", str(seed), "--trace", str(int(traced))]
    if spans_out is not None:
        cmd += ["--spans-out", str(spans_out)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"crashed": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"worker exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def provenance(numpy_version) -> dict:
    """Machine and code facts; recorded, never gated on."""
    caches = {}
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True, timeout=30).stdout
        for level in ("L2", "L3"):
            m = re.search(rf"^{level} cache:\s*(.+)$", out, re.MULTILINE)
            caches[level] = m.group(1).strip() if m else None
    except (OSError, subprocess.TimeoutExpired):
        caches = {"L2": None, "L3": None}
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src" / "matchgap").rglob("*.py")))
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"nproc": nproc, "cpu_count": os.cpu_count(), "l2_cache": caches["L2"],
            "l3_cache": caches["L3"], "python": platform.python_version(),
            "numpy": numpy_version, "git_commit": commit, "src_lines": src_lines}


def check_runs(workload: str, seed: int, runs: list[dict]) -> dict:
    """Classify every operation of every worker run; see the module docstring."""
    workloads.import_matchgap(ROOT)
    pinned = workloads.load_pinned()
    argvs = dict(workloads.commands(workload, seed))
    verdicts: dict[tuple[str, str], list[str]] = {}  # (command, stdout) -> problems
    reference: dict[str, str] = {}                   # first untraced stdout per command
    attempted = failed = known = 0
    failures: list[str] = []
    for i, run in enumerate(runs):
        if "crashed" in run:
            attempted += len(argvs)
            failed += len(argvs)
            failures.append(f"run {i}: {run['crashed']}")
            continue
        for cmd in run["commands"]:
            attempted += 1
            name, out = cmd["name"], cmd["stdout"]
            defect = workloads.KNOWN_DEFECTS.get((workload, name))
            if cmd["rc"] != 0:
                failed += 1
                if defect is not None and cmd["rc"] == 1 and defect in cmd["stderr"]:
                    known += 1
                else:
                    failures.append(f"run {i} {name}: exit {cmd['rc']} {cmd['exception'] or ''}"
                                    f" {cmd['stderr'].strip()[-300:]}")
                continue
            problems = []
            ref = reference.setdefault(name, out)
            if out != ref:
                problems.append(f"{name}: output bytes differ from the first run"
                                f"{' (traced)' if run['traced'] else ''}")
            key = (name, out)
            if key not in verdicts:
                verdicts[key] = workloads.check(workload, name, argvs[name], seed, out, pinned)
            problems += verdicts[key]
            if problems:
                failed += 1
                failures.extend(f"run {i} {p}" for p in problems)
    return {"attempted": attempted, "failed": failed, "known_defect_failures": known,
            "failures": failures, "correct": not failures}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (ROOT / "src" / "matchgap" / "__init__.py").is_file():
        sys.stderr.write(f"no matchgap sources under {ROOT / 'src'}; "
                         "run from the root of a matchgap checkout\n")
        return 2
    if not workloads.PINNED_PATH.is_file():
        sys.stderr.write(f"missing {workloads.PINNED_PATH}\n")
        return 2
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_out = RESULTS / f"{stem}-spans.json" if args.trace else None

    runs: list[dict] = []
    start = time.perf_counter()
    while (len(runs) < (2 * MIN_RUNS if args.trace else MIN_RUNS)
           or time.perf_counter() - start < args.seconds):
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(run_worker(args.workload, args.seed, traced,
                               spans_out if traced else None))
        if "crashed" in runs[-1]:
            break
    measured_s = time.perf_counter() - start
    ops = check_runs(args.workload, args.seed, runs)
    check_s = time.perf_counter() - start - measured_s
    ok = [r for r in runs if "crashed" not in r]
    plain = [r for r in ok if not r["traced"]]
    traced_runs = [r for r in ok if r["traced"]]

    summary: dict[str, dict] = {}
    for name, unit in MEASURED_UNITS.items():
        vals = [r[name] for r in plain]
        if vals:
            q1, med, q3 = quartiles(vals)
            summary[name] = {"value": med, "q1": q1, "q3": q3, "runs": len(vals),
                             "unit": unit}
    for name, share in (("ok_frac", 1.0 - ops["failed"] / ops["attempted"]),
                        ("failed_frac", ops["failed"] / ops["attempted"])):
        summary[name] = {"value": share, "runs": len(runs), "unit": "frac"}

    layers: dict[str, dict] = {}
    if traced_runs and plain:
        for name, unit in LAYER_UNITS.items():
            if name == "trace.overhead_frac":
                continue
            vals = [r["layers"][name] for r in traced_runs]
            exact = name in EXACT_LAYER_METRICS
            if exact and len(set(vals)) > 1:
                ops["failures"].append(f"{name} differs between traced runs: {vals}")
                ops["correct"] = False
            layers[name] = {"value": vals[0] if exact else statistics.median(vals),
                            "unit": unit, "runs": len(vals)}
        overhead = (statistics.median(r["wall_s"] for r in traced_runs)
                    / statistics.median(r["wall_s"] for r in plain) - 1.0)
        layers["trace.overhead_frac"] = {"value": overhead, "unit": "frac",
                                         "runs": len(traced_runs)}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "measured_s": measured_s, "check_s": check_s,
        "provenance": provenance(ok[0]["numpy"] if ok else None),
        "correct": ops["correct"], "attempted": ops["attempted"], "failed": ops["failed"],
        "known_defect_failures": ops["known_defect_failures"], "failures": ops["failures"],
        "end_to_end": summary, "per_layer": layers,
        "runs": [{k: v for k, v in r.items() if k not in ("commands", "span_tree")}
                 | {"commands": [{k: c[k] for k in ("name", "rc", "seconds")}
                                 for c in r.get("commands", [])]}
                 for r in runs],
        "span_tree": traced_runs[-1]["span_tree"] if traced_runs else None,
    }
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  runs {len(runs)} in {measured_s:.1f} s"
          f"  checks {check_s:.1f} s  ops {ops['attempted']}  failed {ops['failed']}"
          f" ({ops['known_defect_failures']} known defect)")
    for problem in ops["failures"][:20]:
        print(f"  FAIL {problem}")
    for name, m in summary.items():
        how = (f"median of {m['runs']} runs, q1 {m['q1']:.6g}, q3 {m['q3']:.6g}" if "q1" in m
               else f"over {ops['attempted']} operations in {m['runs']} runs")
        print(f"  {name:<14} {m['value']:.6g} {m['unit']}  ({how})")
    for name, m in layers.items():
        print(f"  {name:<36} {m['value']:.6g} {m['unit']}  (runs {m['runs']})")

    chosen = layers if args.trace else {k: summary[k] for k in END_TO_END if k in summary}
    result = {"correct": ops["correct"], "attempted": ops["attempted"],
              "failed": ops["failed"],
              "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                          for k, v in chosen.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
