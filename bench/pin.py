"""Record the pinned output fields of every workload command.

    python3 bench/pin.py

Run from the root of a checkout.  Runs each command at seeds 0-31 through
``matchgap.cli.main`` and stores its value reprs and ``passed`` flags in
``bench/pinned.json``, keyed by seed.  A command that fails with a known
defect has no output to record; its entry holds what the library calls
return for the same arguments, which is what a fixed command must print.
Re-recording is a behaviour change: the pinned bytes are the ROADMAP's
repr/determinism invariant.
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import workloads

SEEDS = range(32)


def main() -> int:
    workloads.import_matchgap(Path.cwd())
    from matchgap import cli

    commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                            text=True).stdout.strip()
    pinned: dict = {"_recorded_at": commit}
    for seed in SEEDS:
        for workload in workloads.WORKLOADS:
            for name, argv in workloads.commands(workload, seed):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = cli.main(argv)
                defect = workloads.KNOWN_DEFECTS.get((workload, name))
                if rc == 0:
                    entry = workloads.summarize(name, out.getvalue())
                elif defect is not None and defect in err.getvalue():
                    entry = workloads.expected_summary(name, argv)
                else:
                    raise SystemExit(f"{workload} {name} seed {seed}: exit {rc}: "
                                     f"{err.getvalue()}")
                pinned.setdefault(str(seed), {}).setdefault(workload, {})[name] = entry
        print(f"seed {seed} recorded", file=sys.stderr)
    write_pinned(pinned)
    return 0


def write_pinned(pinned: dict) -> None:
    """One line per seed, so a re-recording diffs seed by seed."""
    lines = [f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
             for k, v in sorted(pinned.items())]
    with open(workloads.PINNED_PATH, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
