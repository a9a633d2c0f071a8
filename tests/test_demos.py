"""The stdout of every script in `demos/`, byte for byte.

Each demo runs in a fresh interpreter with one BLAS thread
(`model.fractional_value` sums with ``np.dot``, whose order depends on
the thread count) and must exit 0 and print exactly the bytes recorded
in `demos_stdout.json`.  ``python tests/test_demos.py`` records the
demos missing from the fixture and keeps every recorded entry; delete an
entry to re-record it, and only after arguing an intended output change.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).with_name("demos_stdout.json")
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))
ONE_BLAS_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def run_demo(name: str) -> subprocess.CompletedProcess:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, **ONE_BLAS_THREAD, PYTHONPATH=path)
    return subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_recording(name):
    with open(FIXTURE) as fh:
        recorded = json.load(fh)[name]
    proc = run_demo(name)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == recorded


if __name__ == "__main__":
    record = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    for name in DEMOS:
        if name not in record:
            proc = run_demo(name)
            if proc.returncode != 0:
                sys.exit(f"{name} exited {proc.returncode}:\n{proc.stderr}")
            record[name] = proc.stdout
    with open(FIXTURE, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
