"""Command-line front end: generators, estimators, and the verification suite.

Subcommands: gen, exact, mc, certify, verify, phi, report.  Instances
travel as JSON per the model schema.  Output is deterministic for a fixed
command line and seed: no timestamps, sorted keys, repr-formatted floats.
Exit codes: 0 all checks pass, 1 mathematical violation or infeasible
input, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys

import numpy as np

from . import estimate, gallery, kernels
from .kernels import CheckReport, KernelConfig
from .matching import MatchingCutoffExceeded
from .model import (Instance, InstanceFormatError, dump_instance, fractional_value,
                    instance_from_dict, validate_polytope)
from .rng import uniform_block
from .sampling import BLOCK_BYTES, SampledGraph, SupportTooLarge
from .schemes import DEFAULT_TRANSFER


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_rows(args, header, rows) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        _write(args, buf.getvalue())
    else:
        payload = [dict(zip(header, row)) for row in rows]
        _write(args, json.dumps(payload, sort_keys=True) + "\n")


def _build_instance(args) -> Instance:
    if getattr(args, "inst", None):
        with open(args.inst) as fh:
            return instance_from_dict(json.load(fh))
    name = getattr(args, "gen", None)
    if name is None:
        raise UsageError("provide --inst FILE or --gen NAME")
    if name == "karp_sipser":
        return gallery.gen_karp_sipser(args.n, args.c, args.kind)
    if name == "pendant_star":
        return gallery.gen_pendant_star(args.n, args.eps)
    if name == "equal_split_star":
        return gallery.gen_equal_split_star(args.n, args.eps)
    if name == "random_point":
        return gallery.gen_random_point(args.n, args.density, args.seed, args.kind,
                                        weighted=not args.unweighted)
    raise UsageError(f"unknown generator {name!r}")


class UsageError(ValueError):
    pass


def _gated(cmd):
    """The command `cmd(args, inst)` on the instance of `args`, refused with
    exit 1 when a vertex's load exceeds 1, unless --allow-infeasible."""
    def run(args) -> int:
        inst = _build_instance(args)
        report = validate_polytope(inst, tolerance=args.tolerance)
        if not report.degree_ok and not args.allow_infeasible:
            load = report.violating_vertex_load
            sys.stderr.write(
                f"infeasible instance: vertex {inst.vertex_label(report.violating_vertex)} "
                f"has load {load!r} > 1 (use --allow-infeasible to proceed)\n")
            return 1
        return cmd(args, inst)
    return run


def _cmd_gen(args) -> int:
    _write(args, dump_instance(_build_instance(args)) + "\n")
    return 0


@_gated
def _cmd_exact(args, inst: Instance) -> int:
    est = estimate.exact_ratio(inst)
    _emit_rows(args, estimate.CSV_HEADER, [est.csv_row(_instance_id(args))])
    return 0


@_gated
def _cmd_mc(args, inst: Instance) -> int:
    est = estimate.mc_ratio(inst, args.samples, args.seed)
    _emit_rows(args, estimate.CSV_HEADER, [est.csv_row(_instance_id(args))])
    return 0


def _instance_id(args) -> str:
    if getattr(args, "inst", None):
        return args.inst
    parts = [args.gen, f"n={args.n}"]
    if args.gen == "karp_sipser":
        parts += [f"c={args.c!r}", f"kind={args.kind}"]
    elif args.gen in ("pendant_star", "equal_split_star"):
        parts += [f"eps={args.eps!r}"]
    elif args.gen == "random_point":
        parts += [f"density={args.density!r}", f"seed={args.seed}", f"kind={args.kind}"]
    return " ".join(parts)


@_gated
def _cmd_certify(args, inst: Instance) -> int:
    if inst.kind != "bipartite":
        sys.stderr.write("per-edge certificates require a bipartite instance\n")
        return 1
    floor = (kernels.WEIGHTED_BIPARTITE_FLOOR if args.scheme == "weighted"
             else kernels.UNWEIGHTED_BIPARTITE_CERTIFIED)
    header = ["edge", "u", "v", "x", "w", "scheme", "bound", "mode",
              "certificate", "floor", "passed"]
    rows = []
    all_ok = True
    certs = estimate.per_edge_certificates(inst, mode=args.mode, scheme=args.scheme,
                                           bound=args.bound, samples=args.samples,
                                           seed=args.seed)
    u, v, x, w = inst.columns()
    for j, cert in certs.items():
        ok = bool(cert >= floor - args.tolerance)
        all_ok = all_ok and ok
        rows.append([j, u[j], v[j], repr(x[j]), repr(w[j]), args.scheme, args.bound,
                     args.mode, repr(cert), repr(floor), ok])
    _emit_rows(args, header, rows)
    return 0 if all_ok else 1


@_gated
def _cmd_phi(args, inst: Instance) -> int:
    curve = kernels.phi_curve(inst, args.grid_points, mode=args.mode,
                              samples=args.samples, seed=args.seed)
    rows = [[repr(float(t)), repr(float(p))] for t, p in curve]
    _emit_rows(args, ["t", "phi"], rows)
    return 0


def run_verify_suite(cfg: KernelConfig = KernelConfig(), c: float = DEFAULT_TRANSFER,
                     bern_grid_step: float = 0.05, m_max: int = 4,
                     gain_trials: int = 2000, derivative_trials: int = 100,
                     tolerance: float = 1e-9, seed: int = 0) -> list[CheckReport]:
    """Run every analytic check and return the reports.

    `m_max`, `gain_trials` and `derivative_trials` must be non-negative;
    zero skips the checks they size.  Seeds derived from `seed` wrap
    modulo 2**64, the range of a counter stream's seed.
    """
    for name, count in (("m_max", m_max), ("gain_trials", gain_trials),
                        ("derivative_trials", derivative_trials)):
        if count < 0:
            raise ValueError(f"{name} must be non-negative, got {count}")
    reports: list[CheckReport] = []

    for m in range(1, m_max + 1):
        reports.append(kernels.verify_kernel_minimizer(m, bern_grid_step, tolerance))
    for m in range(2, min(m_max, 4) + 1):
        reports.append(kernels.verify_uniform_minimizer(m, bern_grid_step, tolerance))

    for pair in zip(*(kernels.verify_equal_splits([k / 10.0 for k in range(1, 11)], m,
                                                  bern_grid_step, c, tolerance) for m in (1, 2))):
        reports += pair  # x0 by x0, m = 1 then 2

    reports += _worst_gain_trial(gain_trials, tolerance, seed)

    reports.append(kernels.check_unweighted_envelope(cfg, tolerance=tolerance))

    const = kernels.weighted_kernel_constant()
    gap = abs(const.closed_form - const.series_value)
    reports.append(CheckReport(
        check="weighted_kernel_constant",
        parameters={"poisson_tail_cutoff": kernels.POISSON_TAIL_CUTOFF, "tolerance": 1e-12},
        min_value=const.closed_form,
        argmin=None,
        passed=bool(gap <= 1e-12 and const.closed_form >= 0.4481),
        details={"series_value": const.series_value, "difference": gap},
    ))

    reports.append(CheckReport(
        check="general_bound_constant",
        parameters={},
        min_value=kernels.GENERAL_GRAPH_FLOOR,
        argmin=None,
        passed=bool(kernels.GENERAL_GRAPH_FLOOR >= 0.4323),
        details={},
    ))

    reports += _worst_derivative_trial(derivative_trials, tolerance, seed)

    phi_inst = gallery.gen_random_point(4, 0.5, (seed + 7) % (1 << 64), "general")
    if phi_inst.num_edges > 0 and fractional_value(phi_inst) > 0:
        reports.append(kernels.check_phi_differential(phi_inst, grid_points=50,
                                                      tolerance=tolerance))
    return reports


def _worst_gain_trial(trials: int, tolerance: float, seed: int) -> list[CheckReport]:
    """check_gain_ratios on the first of `trials` random mean-1 Bernoulli
    vectors with the least margin, tagged with the trial count and seed;
    none for no trials.  Trial k, of length 2 + k % 7, is read from stream
    k; a block's trials are grouped by length for kernels.gain_margins."""
    worst_margin = worst_u = None
    block = BLOCK_BYTES // 64
    for a in range(0, trials, block):
        ks = np.arange(a, min(a + block, trials))
        rows = uniform_block(seed, ks, 8)
        mins = np.empty(len(ks))
        for length in range(2, 9):
            sel = np.flatnonzero(ks % 7 == length - 2)
            u = rows[sel, :length]
            mins[sel] = kernels.gain_margins(u / u.sum(axis=1)[:, None])[1].min(axis=1)
        i = int(np.argmin(mins))
        if worst_u is None or mins[i] < worst_margin:
            worst_margin, worst_u = mins[i], rows[i, :2 + ks[i] % 7]
    if worst_u is None:
        return []
    worst = kernels.check_gain_ratios((worst_u / worst_u.sum()).tolist(), tolerance=tolerance)
    worst.parameters.update(trials=trials, seed=seed)
    return [worst]


def _worst_derivative_trial(trials: int, tolerance: float, seed: int) -> list[CheckReport]:
    """check_local_derivative_bound on the first of `trials` random
    realized graphs with the least margin, tagged with the trial count and
    seed; none for no trials.  The trials of each vertex count are solved
    as one disjoint union by kernels.local_derivative_sides."""
    if not trials:
        return []
    margins = np.empty(trials)
    for n in range(2, 2 + min(trials, 5)):
        ks = np.arange(n - 2, trials, 5)
        union, cuts, realized = _derivative_trials(n, ks, seed)
        lhs, rhs = kernels.local_derivative_sides(union, realized, cuts)
        margins[ks] = lhs - rhs
    k = int(np.argmin(margins))  # the first least, in trial order
    union, _, realized = _derivative_trials(2 + k % 5, [k], seed)
    worst = kernels.check_local_derivative_bound(SampledGraph(union, realized), tolerance)
    worst.parameters.update(trials=trials, seed=seed)
    return [worst]


def _derivative_trials(n: int, ks, seed: int):
    """Trials `ks` of the local derivative check, all on n vertices, as one
    disjoint union: trial k is sample k of the run seed + 1 drawn on
    gen_random_point(n, 0.6, seed * 100003 + k, "general"), seeds modulo
    2**64.  Returns the union, its cuts (gallery.gen_random_points) and
    the realized mask over its edges: edge `pos` of trial k is realized
    when its uniform, position `pos` of stream k, is below its x."""
    ks = np.asarray(ks, dtype=np.uint64)
    union, cuts = gallery.gen_random_points(
        n, 0.6, [(seed * 100003 + k) % (1 << 64) for k in ks.tolist()], "general")
    sizes = np.diff(cuts)
    row = np.repeat(np.arange(len(ks)), sizes)
    pos = np.arange(union.num_edges) - cuts[row]
    u = uniform_block((seed + 1) % (1 << 64), ks, int(sizes.max()))
    return union, cuts, u[row, pos] < union.x


def _cmd_verify(args) -> int:
    if args.m_max >= 1:  # the minimizer checks' vectors must have mean 1
        try:
            kernels.grid_units(args.grid_step)
        except ValueError as exc:
            args.refuse(f"argument --grid-step: {exc} when --m-max is at least 1")
    cfg = KernelConfig(grid_step=args.envelope_step)
    reports = run_verify_suite(cfg=cfg, c=args.c, bern_grid_step=args.grid_step,
                               m_max=args.m_max, gain_trials=args.gain_trials,
                               derivative_trials=args.derivative_trials,
                               tolerance=args.tolerance, seed=args.seed)
    passed = all(r.passed for r in reports)
    if args.format == "csv":
        rows = [[d["check"], d["passed"], repr(d["min_value"]),
                 json.dumps(d["argmin"]), json.dumps(d["parameters"], sort_keys=True)]
                for d in (r.to_dict() for r in reports)]
        _emit_rows(args, ["check", "passed", "min_value", "argmin", "parameters"], rows)
    else:
        payload = {"checks": [r.to_dict() for r in reports], "passed": passed}
        _write(args, json.dumps(payload, sort_keys=True) + "\n")
    return 0 if passed else 1


def _cmd_report(args) -> int:
    reports = run_verify_suite(tolerance=args.tolerance, seed=args.seed,
                               gain_trials=500, derivative_trials=50)
    floors = {}
    for kind, unweighted, floor, label in (
            ("bipartite", True, kernels.UNWEIGHTED_BIPARTITE_TARGET, "bipartite_unweighted"),
            ("bipartite", False, kernels.WEIGHTED_BIPARTITE_FLOOR, "bipartite_weighted"),
            ("general", False, kernels.GENERAL_GRAPH_FLOOR, "general_weighted")):
        worst = None
        for k in range(args.instances):
            inst = gallery.gen_random_point(2 + k % 4, 0.6, (args.seed * 7919 + k) % (1 << 64),
                                            kind, weighted=not unweighted)
            if inst.num_edges == 0 or fractional_value(inst) <= 0:
                continue
            try:
                ratio = estimate.exact_ratio(inst).value
            except SupportTooLarge:  # past the exact cutoff, skipped as empty points are
                continue
            if worst is None or ratio < worst:
                worst = ratio
        floors[label] = {"floor": floor, "worst_ratio": worst,
                         "passed": worst is None or worst >= floor - args.tolerance}

    sweep = []
    for k in range(1, 9):
        c = k / 8.0
        inst = gallery.gen_karp_sipser(args.karp_n, c, "bipartite")
        est = estimate.mc_ratio(inst, args.samples, args.seed)
        sweep.append({"c": c, "ratio": est.value,
                      "ci_low": est.ci_low, "ci_high": est.ci_high})
    payload = {
        "checks": [r.to_dict() for r in reports],
        "ratio_floors": floors,
        "karp_sipser_sweep": sweep,
        "passed": (all(r.passed for r in reports)
                   and all(f["passed"] for f in floors.values())),
    }
    _write(args, json.dumps(payload, sort_keys=True) + "\n")
    return 0 if payload["passed"] else 1


def _checked(kind, ok, what):
    """An argparse type: `kind` of the text, refused as a usage error
    unless `ok` holds for it."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


#: Seeds key 64-bit counter streams; the tolerance widens every check, so a
#: NaN would pass them all and a negative one fail feasible input.
_SEED = _checked(int, lambda s: 0 <= s < 1 << 64, "an integer in [0, 2**64)")
_TOLERANCE = _checked(float, lambda t: 0.0 <= t < math.inf, "finite and non-negative")


@functools.cache  # one parser per process: parsing never changes it
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="matchgap")
    sub = parser.add_subparsers(dest="command", required=True)
    positive = _checked(int, lambda k: k > 0, "positive")  # samples and grid points
    count = _checked(int, lambda k: k >= 0, "non-negative")  # 0 skips what it counts

    def command(name, func, help, samples=True, rows=True, checks=True, instance_input=True):
        """A subcommand with only the options `func` reads: --seed and --out
        always, --samples where it draws, --format where it prints rows,
        --tolerance where it checks, and --allow-infeasible where it gates
        an instance."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--seed", type=_SEED, default=0)
        if samples:
            p.add_argument("--samples", type=positive, default=10000)
        p.add_argument("--out", default=None)
        if rows:
            p.add_argument("--format", choices=("json", "csv"), default="json")
        if checks:
            p.add_argument("--tolerance", type=_TOLERANCE, default=1e-9)
        if instance_input:
            if checks:
                p.add_argument("--allow-infeasible", action="store_true")
            p.add_argument("--inst", default=None, help="instance JSON file")
            p.add_argument("--gen", default=None,
                           choices=("karp_sipser", "pendant_star",
                                    "equal_split_star", "random_point"))
            p.add_argument("--n", type=int, default=4)
            p.add_argument("--c", type=float, default=1.0)
            p.add_argument("--eps", type=float, default=0.5)
            p.add_argument("--density", type=float, default=0.5)
            p.add_argument("--kind", choices=("bipartite", "general"), default="bipartite")
            p.add_argument("--unweighted", action="store_true")
        return p

    command("gen", _cmd_gen, "emit a generated instance as JSON", samples=False, rows=False,
            checks=False)
    command("exact", _cmd_exact, "exact ratio by support enumeration", samples=False)
    command("mc", _cmd_mc, "Monte Carlo ratio estimate")

    p_cert = command("certify", _cmd_certify, "per-edge scheme certificates")
    p_cert.add_argument("--scheme", choices=("weighted", "unweighted"), default="weighted")
    p_cert.add_argument("--bound", choices=("mass", "kernel"), default="mass")
    p_cert.add_argument("--mode", choices=("exact", "mc"), default="exact")

    p_phi = command("phi", _cmd_phi, "expected matching weight under scaled x")
    p_phi.add_argument("--grid-points", type=positive, default=20)
    p_phi.add_argument("--mode", choices=("exact", "mc"), default="exact")

    p_verify = command("verify", _cmd_verify, "run the analytic check suite", samples=False,
                       instance_input=False)
    p_verify.set_defaults(refuse=p_verify.error)
    step = _checked(float, lambda s: 0.0 < s < math.inf, "finite and positive")
    p_verify.add_argument("--c", type=_checked(float, math.isfinite, "finite"),
                          default=DEFAULT_TRANSFER)
    p_verify.add_argument("--grid-step", type=step, default=0.05)
    p_verify.add_argument("--envelope-step", default=1e-3,  # past 1: x = 0 alone, or x > 1
                          type=_checked(float, lambda s: 0.0 < s <= 1.0, "in (0, 1]"))
    p_verify.add_argument("--m-max", type=count, default=4,
                          help="longest Bernoulli vector of the minimizer grid checks "
                               "(0 skips them)")
    p_verify.add_argument("--gain-trials", type=count, default=2000,
                          help="random mean-1 vectors of the gain-ratio check (0 skips it)")
    p_verify.add_argument("--derivative-trials", type=count, default=100,
                          help="random graphs of the local derivative check (0 skips it)")

    p_report = command("report", _cmd_report, "combined verification report", rows=False,
                       instance_input=False)
    p_report.add_argument("--instances", type=count, default=50)
    p_report.add_argument("--karp-n", type=int, default=60)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (json.JSONDecodeError, InstanceFormatError, FileNotFoundError, UsageError,
            SupportTooLarge, MatchingCutoffExceeded) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (estimate.ZeroDenominator, ValueError, TypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
