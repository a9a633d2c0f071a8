#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, summarized as one BENCH file.

For every workload, runs ``python3 bench/run.py --workload W --seed S
--seconds T --trace 0`` from the root of a parent checkout and of a
change checkout, one after the other, ten times (the fewest pairs a
claimed gain is judged on); T is ``run_seconds`` of the change
checkout's ``BENCHMARK.json``, the same on both sides.  Pair k runs the
parent first when k is even and the change first when k is odd.  Each run's
end-to-end metrics are read from the JSON line ``bench/run.py`` prints
last.  The output file holds, per workload and metric, both sides' runs,
their medians and quartiles (linear interpolation, as numpy's default
percentile) and the number of pairs in which the change was better, in
the direction that the change checkout's ``BENCHMARK.json`` gives.
Under ``machine`` it records the effective parallelism: the wall time of
one fixed pure-Python loop in a fresh interpreter, times two, over the
wall time of two concurrent copies (median of three tries).  It reads
2.0 where two CPUs are free and 1.0 where the copies share one, which a
CPU count does not show.  It also records whether ``PYTHONDONTWRITEBYTECODE``
is set and, per checkout, whether ``src/matchgap/__pycache__`` existed
before the runs: without a bytecode cache every benchmark worker compiles
``src/`` inside ``setup_s`` and ``peak_rss_mb``, so source growth reads as
a setup or memory change.

    python3 scripts/bench_pairs.py --parent ../parent --change . --pr N \\
        --seed 11 --out BENCH_N.json

Standard library only; the benchmark itself imports numpy.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

PAIRS = 10
PROBE = "x = 0\nfor i in range(3_000_000):\n    x += i * i\n"


def parallelism() -> float:
    """Throughput of two concurrent copies of PROBE relative to one copy."""
    def wall(copies: int) -> float:
        start = time.perf_counter()
        procs = [subprocess.Popen([sys.executable, "-c", PROBE]) for _ in range(copies)]
        for proc in procs:
            proc.wait()
        return time.perf_counter() - start

    return statistics.median(2 * wall(1) / wall(2) for _ in range(3))


def quartiles(vals: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def run_bench(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one end-to-end benchmark run in `root`."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def src_lines(root: Path) -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((root / "src").rglob("*.py")))


def commit(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=root,
                             capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() or None


def compare(workload: str, roots: dict, directions: dict, seed: int, seconds: float) -> dict:
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for k in range(PAIRS):
        for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
            runs[side].append(run_bench(roots[side], workload, seed, seconds))
            wall = runs[side][-1]["metrics"].get("wall_s", {}).get("value")
            print(f"{workload} pair {k + 1}/{PAIRS} {side}: wall_s {wall}", file=sys.stderr)
    metrics = {}
    for name, better in directions.items():
        par = [r["metrics"][name]["value"] for r in runs["parent"]]
        chg = [r["metrics"][name]["value"] for r in runs["change"]]
        wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(par, chg))
        metrics[name] = {"parent": quartiles(par), "change": quartiles(chg),
                         "change_better_pairs": wins, "runs_parent": par, "runs_change": chg}
    return {"pairs": PAIRS,
            "correct_all_runs": all(r["correct"] for side in runs.values() for r in side),
            "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="root of the change checkout")
    ap.add_argument("--pr", required=True, help="number that names the output BENCH_<pr>.json")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable); default: every one in BENCHMARK.json")
    ap.add_argument("--claim", default=None, help="the claimed gain, recorded as given")
    ap.add_argument("--out", type=Path, default=None, help="default: BENCH_<pr>.json here")
    args = ap.parse_args()

    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((roots["change"] / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    out = args.out or Path(f"BENCH_{args.pr}.json")
    cached = {side: (root / "src" / "matchgap" / "__pycache__").is_dir()
              for side, root in roots.items()}

    record = {
        "harness": (f"python3 bench/run.py --workload W --seed {args.seed} --seconds "
                    f"{seconds:g} --trace 0, run from the root of each checkout; "
                    "pairs alternate which side runs first; quartiles interpolate "
                    "linearly between the per-run medians"),
        "machine": {"nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
                    "python": platform.python_version(),
                    "effective_parallelism": round(parallelism(), 2),
                    "pythondontwritebytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
                    "pycache_before_runs": cached},
        "parent_commit": commit(roots["parent"]),
        "change_commit": commit(roots["change"]),
        "src_lines": {side: src_lines(root) for side, root in roots.items()},
        "claim": args.claim,
        "seed": args.seed,
        "workloads": {},
    }
    for workload in workloads:
        record["workloads"][workload] = compare(workload, roots, directions, args.seed,
                                                seconds)
        out.write_text(json.dumps(record, indent=1) + "\n")  # kept after every workload
        for name, m in record["workloads"][workload]["metrics"].items():
            p, c = m["parent"], m["change"]
            print(f"{workload} {name}: {p['median']:.6g} -> {c['median']:.6g} "
                  f"(parent IQR {p['q3'] - p['q1']:.3g}, change better in "
                  f"{m['change_better_pairs']}/{PAIRS} pairs)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
