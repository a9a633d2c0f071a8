"""The benchmark still runs, and still accepts the library's output.

`bench/spans.py` wraps library functions by name (``getattr``) and binds
the estimate entry points' arguments by parameter name, so deleting or
renaming one of them breaks only traced benchmark runs.  The first test
installs the tracer in a fresh interpreter and runs one small traced
``mc`` and one small traced exact-mass ``certify`` through the CLI.

`bench/workloads.py` checks each command's output against library calls
with the same arguments and against `bench/pinned.json`, so a changed
signature or output byte fails the benchmark.  The other tests run that
check on every command of the benchmark at pinned seed 0, and on `verify`
at every pinned seed.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from spans import Tracer
tracer = Tracer()
tracer.install("matchgap")
from matchgap import cli
commands = [
    ["mc", "--gen", "karp_sipser", "--n", "6", "--c", "1.0", "--samples", "50"],
    ["certify", "--gen", "pendant_star", "--n", "3", "--eps", "0.2",
     "--bound", "mass", "--mode", "exact"],
]
codes = [tracer.span("cli", cli.main, argv + ["--out", os.devnull]) for argv in commands]
print(json.dumps({"codes": codes, "layers": tracer.layer_metrics(0, 0, 0),
                  "paths": sorted(tracer.span_tree())}))
"""


def test_traced_mc_and_certify_run():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT / "bench")], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0]
    layers = out["layers"]
    # mc_ratio's samples and per_edge_masses_exact's masks (pendant_star n=3 has 4 edges)
    assert layers["estimate.calls"] == 2
    assert layers["estimate.samples"] == 50
    assert layers["estimate.masks"] == 1 << 4
    assert "cli/estimate" in out["paths"]
    assert "cli/gallery" in out["paths"]


PINNED_SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import workloads
workloads.import_matchgap(Path(sys.argv[2]))
from matchgap import cli, model
pinned = workloads.load_pinned()
problems = {}
for seed, workload, only in json.loads(sys.argv[3]):
    workloads.setup(cli, model, workload, seed)
    for name, argv in workloads.commands(workload, seed):
        if only not in (None, name):
            continue
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = cli.main(argv)
        problems[f"{seed}/{workload}/{name}"] = (
            [f"exit {rc}"] if rc else workloads.check(workload, name, argv, seed,
                                                       out.getvalue(), pinned))
print(json.dumps(problems))
"""

BENCH_WORKLOADS = ["mc_uniform", "mc_weighted", "certify"]
PINNED = json.loads((ROOT / "bench" / "pinned.json").read_text())


def pinned_problems(jobs):
    """The benchmark's check of each (seed, workload, command) of `jobs`,
    command None for all of the workload's, keyed "seed/workload/command"."""
    proc = subprocess.run([sys.executable, "-c", PINNED_SCRIPT, str(ROOT / "bench"), str(ROOT),
                           json.dumps(jobs)], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_benchmark_outputs_match_pinned_seed_0():
    problems = pinned_problems([(0, workload, None) for workload in BENCH_WORKLOADS])
    # every command ran, and each has a pinned output to be compared with
    assert sorted(problems) == sorted(f"0/{w}/{n}" for w in BENCH_WORKLOADS for n in PINNED["0"][w])
    assert problems == {key: [] for key in problems}


def test_verify_matches_pinned_at_every_seed():
    seeds = sorted(int(seed) for seed in PINNED if seed.isdigit())
    assert len(seeds) == 32 and all("verify" in PINNED[str(s)]["certify"] for s in seeds)
    problems = pinned_problems([(seed, "certify", "verify") for seed in seeds])
    assert sorted(problems) == sorted(f"{seed}/certify/verify" for seed in seeds)
    assert problems == {key: [] for key in problems}
