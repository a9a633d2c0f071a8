"""The benchmark's workloads: CLI commands, set-up instances, output checks.

Every workload is a closed loop with one client: its commands run one
after another through ``matchgap.cli.main`` in a single process.  The
workload seed is passed to every command as ``--seed``; for
``random_point`` it is also the generator seed.

Output checks, per command:

* the command exits 0 and its output parses;
* the ratio or every certificate equals ``float()`` of the library call
  with the same arguments (``estimate.mc_ratio``,
  ``estimate.per_edge_certificate``, ``cli.run_verify_suite``);
* at a seed recorded in ``pinned.json`` the value reprs and ``passed``
  flags match the recorded ones byte for byte.  Interval ends
  (``ci_low``/``ci_high``) are not pinned.

``KNOWN_DEFECTS`` lists failures that are counted as failed operations
but do not make the run incorrect.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from pathlib import Path

PINNED_PATH = Path(__file__).with_name("pinned.json")
#: One BLAS thread everywhere: np.dot in model.fractional_value sums in a
#: thread-count-dependent order, so the printed ratio of a 40,000-edge
#: instance changes in its last digits with OPENBLAS_NUM_THREADS.
BLAS_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

WORKLOADS = {
    "mc_uniform": [
        ("mc", ["mc", "--gen", "karp_sipser", "--kind", "bipartite", "--n", "200",
                "--c", "1.0", "--samples", "2000"]),
    ],
    "mc_weighted": [
        ("mc", ["mc", "--gen", "random_point", "--kind", "bipartite", "--n", "100",
                "--density", "0.1", "--samples", "8000"]),
    ],
    "certify": [
        ("verify", ["verify"]),
        ("certify_mass", ["certify", "--gen", "equal_split_star", "--n", "7",
                          "--eps", "0.1", "--scheme", "unweighted", "--bound", "mass",
                          "--mode", "exact"]),
        ("certify_kernel_mc", ["certify", "--gen", "pendant_star", "--n", "30",
                               "--eps", "0.1", "--bound", "kernel", "--mode", "mc",
                               "--samples", "500"]),
    ],
}

#: (workload, command) -> text its stderr carries when the defect shows.
#: certify --bound kernel --mode mc returns np.float64 certificates, so the
#: ``passed`` column holds numpy bools and json.dumps raises TypeError: the
#: command exits 1 with "Object of type bool is not JSON serializable".
KNOWN_DEFECTS = {
    ("certify", "certify_kernel_mc"): "is not JSON serializable",
}


def import_matchgap(root: Path):
    """Import matchgap from ``root/src`` with one BLAS thread, refusing any
    other copy."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread count was set")
    os.environ.update(BLAS_ENV)
    src = (Path(root) / "src").resolve()
    sys.path.insert(0, str(src))
    mg = importlib.import_module("matchgap")
    if not Path(mg.__file__).resolve().is_relative_to(src):
        raise ImportError(f"matchgap imported from {mg.__file__}, not from {src}")
    return mg


def commands(workload: str, seed: int) -> list[tuple[str, list[str]]]:
    return [(name, argv + ["--seed", str(seed)]) for name, argv in WORKLOADS[workload]]


def parse(argv: list[str]):
    """The CLI's own parse of a command line, defaults included."""
    from matchgap import cli
    return cli.build_parser().parse_args(argv)


def setup(cli, model, workload: str, seed: int) -> list:
    """Build and validate every instance of the workload (``verify`` has none)."""
    insts = []
    for _, argv in commands(workload, seed):
        args = parse(argv)
        if getattr(args, "gen", None) is None:
            continue
        inst = cli._build_instance(args)
        report = model.validate_polytope(inst, tolerance=args.tolerance)
        if not report.degree_ok:
            raise ValueError(f"{workload}: generated instance leaves the polytope")
        insts.append(inst)
    return insts


# -- summaries: the pinned part of an output ----------------------------------

def summarize(name: str, stdout: str):
    """Pinned fields of one command's JSON output."""
    payload = json.loads(stdout)
    if name == "mc":
        (row,) = payload
        return {"value": row["value"]}
    if name == "verify":
        return {"passed": payload["passed"],
                "checks": [[c["check"], repr(c["min_value"]), c["passed"]]
                           for c in payload["checks"]]}
    return {"rows": [[r["edge"], r["certificate"], r["passed"]] for r in payload]}


def expected_summary(name: str, argv: list[str]):
    """The summary the library calls give for the same arguments."""
    from matchgap import cli, estimate, kernels

    args = parse(argv)
    if name == "verify":
        reports = cli.run_verify_suite(
            cfg=kernels.KernelConfig(grid_step=args.envelope_step), c=args.c,
            bern_grid_step=args.grid_step, m_max=args.m_max, gain_trials=args.gain_trials,
            derivative_trials=args.derivative_trials, tolerance=args.tolerance,
            seed=args.seed)
        dicts = [r.to_dict() for r in reports]
        return {"passed": all(d["passed"] for d in dicts),
                "checks": [[d["check"], repr(float(d["min_value"])), d["passed"]]
                           for d in dicts]}
    inst = cli._build_instance(args)
    if name == "mc":
        return {"value": repr(float(estimate.mc_ratio(inst, args.samples, args.seed).value))}
    floor = (kernels.WEIGHTED_BIPARTITE_FLOOR if args.scheme == "weighted"
             else kernels.UNWEIGHTED_BIPARTITE_CERTIFIED)
    rows = []
    for j in range(inst.num_edges):
        if inst.edges[j].x <= 0:
            continue
        cert = float(estimate.per_edge_certificate(
            inst, j, mode=args.mode, scheme=args.scheme, bound=args.bound,
            samples=args.samples, seed=args.seed))
        rows.append([j, repr(cert), cert >= floor - args.tolerance])
    return {"rows": rows}


def _compare_floats(got, want):
    """True when the repr ``got`` parses to the same float as ``want``."""
    try:
        return float(got) == float(want)
    except (TypeError, ValueError):
        return False


def check(workload: str, name: str, argv: list[str], seed: int, stdout: str,
          pinned: dict) -> list[str]:
    """Problems with one command's output; empty when it passes."""
    try:
        got = summarize(name, stdout)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return [f"{name}: output does not parse: {exc!r}"]
    want = expected_summary(name, argv)
    problems = []
    if name == "mc":
        if not _compare_floats(got["value"], want["value"]):
            problems.append(f"{name}: value {got['value']} != library {want['value']}")
    else:
        key = "checks" if name == "verify" else "rows"
        if name == "verify" and got["passed"] != want["passed"]:
            problems.append(f"{name}: passed {got['passed']} != library {want['passed']}")
        if [g[0] for g in got[key]] != [w[0] for w in want[key]]:
            problems.append(f"{name}: {key} differ from the library's")
        for g, w in zip(got[key], want[key]):
            if not _compare_floats(g[1], w[1]) or g[2] != w[2]:
                problems.append(f"{name}: {g} != library {w}")
    pin = pinned.get(str(seed), {}).get(workload, {}).get(name)
    if pin is not None and got != pin:
        problems.append(f"{name}: output differs from pinned.json at seed {seed}")
    return problems


def load_pinned() -> dict:
    with open(PINNED_PATH) as fh:
        return json.load(fh)
