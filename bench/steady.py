"""Steadiness check: two full sets of benchmark runs of the same code.

    python3 bench/steady.py

Run from the root of a checkout.  Each of the two sets runs every workload
in ``BENCHMARK.json`` ten times with seeds 1..10, through the
command in ``BENCHMARK.json``.  Per workload and end-to-end metric it
prints each set's median and quartiles, the spread (q3 - q1) / median,
and whether

* the spread is within the metric's bound, and below a third of it, the
  steadiness target;
* the second set's median is no worse than the first's by more than the
  bound.

Each set also makes one traced run per workload (seed 1) and the
per-layer counts, such as ``rng.hashes``,
``estimate.masks`` and ``matching.*.solves``, must repeat exactly between
sets.  A summary is written to ``.bench_results/steady.json``.  Exits 1
when any check fails.
"""

from __future__ import annotations

import json
import subprocess
import sys

from run import EXACT_LAYER_METRICS, RESULTS, ROOT, quartiles

SEEDS = range(1, 11)


def bench_run(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    print(f"  {workload} seed {seed} trace {trace}: correct {result['correct']} "
          f"failed {result['failed']}/{result['attempted']} "
          + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                     if trace == 0), flush=True)
    return result


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    sets = []
    for k in range(2):
        print(f"set {k + 1}", flush=True)
        runs = {w: [bench_run(spec, w, s, 0) for s in SEEDS] for w in names}
        traced = {w: [bench_run(spec, w, 1, 1)] for w in names}
        sets.append((runs, traced))

    ok = True
    report = []
    print(f"\n{'workload':<12} {'metric':<12} {'set':>3} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}  verdict")
    for w in names:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            meds = []
            for k, (runs, _) in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs[w]]
                q1, med, q3 = quartiles(values)
                sp = (q3 - q1) / med if med else float("inf")
                meds.append(med)
                verdict = ("steady" if sp < bound / 3 else
                           "within bound" if sp <= bound else "TOO WIDE")
                ok &= sp <= bound
                correct = all(r["correct"] for r in runs[w])
                ok &= correct
                print(f"{w:<12} {name:<12} {k + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} "
                      f"{sp:>8.4f} {bound:>6}  {verdict}{'' if correct else ' INCORRECT'}")
                report.append({"workload": w, "metric": name, "set": k + 1, "median": med,
                               "q1": q1, "q3": q3, "spread": sp, "bound": bound,
                               "values": values, "correct": correct})
            worse = (meds[1] - meds[0] if metric["better"] == "lower"
                     else meds[0] - meds[1]) / meds[0]
            agree = worse <= bound
            ok &= agree
            print(f"{w:<12} {name:<12} second median worse by {worse:+.4f} "
                  f"(bound {bound}): {'agree' if agree else 'DISAGREE'}")
        traced_correct = all(r["correct"] for _, traced in sets for r in traced[w])
        ok &= traced_correct
        if not traced_correct:
            print(f"{w:<12} traced runs INCORRECT")
        (a,), (b,) = sets[0][1][w], sets[1][1][w]
        diff = [m for m in EXACT_LAYER_METRICS
                if a["metrics"][m]["value"] != b["metrics"][m]["value"]]
        ok &= not diff
        print(f"{w:<12} per-layer counts repeat exactly: "
              f"{'yes' if not diff else 'NO: ' + ', '.join(diff)}")
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / "steady.json").write_text(json.dumps(
        {"sets": 2, "runs": len(SEEDS), "rows": report, "ok": ok}, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
