"""The names the benchmark's span tracer reaches for still exist.

`bench/spans.py` wraps library functions by name (``getattr``) and binds
the estimate entry points' arguments by parameter name, so deleting or
renaming one of them breaks only traced benchmark runs.  This test
installs the tracer in a fresh interpreter and runs one small traced
``mc`` and one small traced exact-mass ``certify`` through the CLI.
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
