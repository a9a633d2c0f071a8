"""Span recording around the public functions of each matchgap module.

The wrappers are installed from outside the package: every module
attribute that refers to a wrapped function is replaced, so calls through
``from .x import f`` bindings are recorded as well.  A wrapper returns the
wrapped function's result unchanged and re-raises its exceptions, so a
traced command prints the same bytes as an untraced one.

Spans live in memory as ``[label, start, end, parent, outer, info]``.
``outer`` is false when a span of the same label is already open (for
example ``matching_value`` calling the primal-dual solver), so counts and
busy times are taken from outermost spans only.  Self time is a span's
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

LABEL, START, END, PARENT, OUTER, INFO = range(6)

_KERNEL_ENTRY = ("phi_curve", "weighted_kernel_constant", "general_bound_constant")
_ESTIMATE_ENTRY = ("exact_ratio", "expected_matching_value", "mc_ratio",
                   "per_edge_certificate", "per_edge_masses_exact")
_MATCHING_SOLVERS = {
    "max_weight_matching_bipartite": "matching.primal_dual",
    "max_weight_matching_general": "matching.general",
    "matching_values_over_subsets": "matching.subset_sweep",
}


# -- counts read from arguments and results -----------------------------------

def _rng_info(bound, result):
    return {"hashes": int(result.size)}


def _block_info(bound, result):
    rows, m = result.shape
    return {"rows": int(rows), "hashed": int(result.size),
            "realized": int(result.sum()), "block_bytes": int(rows) * int(m) * 8}


def _sample_info(bound, result):
    r = result.realized
    return {"rows": 1, "hashed": int(r.size), "realized": int(r.sum()),
            "block_bytes": int(r.size) * 8}


def _sweep_info(bound, result):
    return {"masks": int(result.size)}


def _check_info(bound, result):
    if hasattr(result, "passed") and hasattr(result, "check"):
        return {"checks": 1, "failed_checks": int(not result.passed)}
    return None


def _estimate_info(bound, result):
    # mc_ratio has samples but no mode; per_edge_certificate has both
    a = bound.arguments
    if a.get("mode") == "mc" or ("samples" in a and "mode" not in a):
        return {"samples": int(a["samples"])}
    if a.get("bound", "mass") == "mass":
        return {"masks": 1 << a["inst"].num_edges}
    return None


class Tracer:
    """Records spans in memory; one instance per traced process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._depth: dict[str, int] = defaultdict(int)
        self._solver_cache: dict[int, tuple] = {}

    # -- recording -------------------------------------------------------

    def wrap(self, fn, label, info=None, bind=False):
        """Return ``fn`` wrapped in a span; ``label`` may be a callable of
        the call's arguments."""
        spans, stack, depth = self.spans, self._stack, self._depth
        clock = time.perf_counter
        sig = inspect.signature(fn) if bind else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label(args, kwargs) if callable(label) else label
            outer = depth[name] == 0
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, outer, None]
            stack.append(len(spans))
            spans.append(span)
            depth[name] += 1
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[END] = clock()
                span[INFO] = {"error": type(exc).__name__}
                raise
            finally:
                depth[name] -= 1
                stack.pop()
            span[END] = clock()
            if outer and info is not None:
                bound = None
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                span[INFO] = info(bound, result)
            return result

        return wrapper

    def _solver_label(self, args, kwargs):
        g = args[0] if args else kwargs["g"]
        inst = g.instance
        hit = self._solver_cache.get(id(inst))
        if hit is None:
            if inst.kind != "bipartite":
                name = "matching.general"
            elif inst.is_unweighted:
                name = "matching.kuhn"
            else:
                name = "matching.primal_dual"
            hit = (inst, name)  # holding inst keeps its id from being reused
            self._solver_cache[id(inst)] = hit
        return hit[1]

    def install(self, package: str) -> None:
        """Wrap the public functions of every module of ``package``."""
        from importlib import import_module

        mods = {name: import_module(f"{package}.{name}")
                for name in ("rng", "sampling", "matching", "schemes", "kernels",
                             "estimate", "gallery", "model", "cli")}
        targets = [
            (mods["rng"], "uniform_block", "rng", _rng_info, False),
            (mods["rng"], "uniforms", "rng", _rng_info, False),
            (mods["sampling"], "realization_block", "sampling", _block_info, False),
            (mods["sampling"], "sample", "sampling", _sample_info, False),
            (mods["matching"], "matching_value", self._solver_label, None, False),
            (mods["model"], "validate_polytope", "model", None, False),
        ]
        for name, lab in _MATCHING_SOLVERS.items():
            info = _sweep_info if lab == "matching.subset_sweep" else None
            targets.append((mods["matching"], name, lab, info, False))
        for name in vars(mods["schemes"]):
            if name.endswith("_scheme"):
                targets.append((mods["schemes"], name, "schemes", None, False))
        for name in vars(mods["kernels"]):
            if name.startswith(("verify_", "check_")) or name in _KERNEL_ENTRY:
                targets.append((mods["kernels"], name, "kernels", _check_info, False))
        for name in _ESTIMATE_ENTRY:
            targets.append((mods["estimate"], name, "estimate", _estimate_info, True))
        for name in vars(mods["gallery"]):
            if name.startswith("gen_"):
                targets.append((mods["gallery"], name, "gallery", None, False))

        owners = [m for n, m in sys.modules.items()
                  if m is not None and (n == package or n.startswith(package + "."))]
        for mod, name, lab, info, bind in targets:
            orig = getattr(mod, name)
            wrapped = self.wrap(orig, lab, info, bind)
            for owner in owners:
                for attr, val in list(vars(owner).items()):
                    if val is orig:
                        setattr(owner, attr, wrapped)

    def span(self, label, fn, *args):
        """Call ``fn(*args)`` inside one span (used around ``cli.main``)."""
        return self.wrap(fn, label)(*args)

    # -- aggregation -----------------------------------------------------

    def self_times(self) -> list[float]:
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        return [s[END] - s[START] - child[i] for i, s in enumerate(spans)]

    def layer_metrics(self, setup_spans: int, cli_bytes: int, cli_failed: int) -> dict:
        """Per-layer metrics of one traced iteration.

        ``setup_spans`` is the number of spans recorded before the first
        command; ``gallery.gen_s`` and ``model.validate_s`` cover only those.
        """
        selfs = self.self_times()
        busy = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        tot = defaultdict(int)
        setup_busy = defaultdict(float)
        block_bytes = 0
        for i, s in enumerate(self.spans):
            lab = s[LABEL]
            own[lab] += selfs[i]
            if not s[OUTER]:
                continue
            info = s[INFO]
            if info and info.get("error") == "MatchingCutoffExceeded":
                tot["matching.failed"] += 1
            dur = s[END] - s[START]
            busy[lab] += dur
            calls[lab] += 1
            if i < setup_spans:
                setup_busy[lab] += dur
            if info and "error" not in info:
                for k, v in info.items():
                    if k == "block_bytes":
                        block_bytes = max(block_bytes, v)
                    else:
                        tot[f"{lab}.{k}"] += v

        def rate(n, secs):
            return n / secs if secs > 0 else 0.0

        m = {
            "rng.hashes": tot["rng.hashes"],
            "rng.calls": calls["rng"],
            "rng.busy_s": busy["rng"],
            "rng.hashes_per_s": rate(tot["rng.hashes"], busy["rng"]),
            "sampling.rows": tot["sampling.rows"],
            "sampling.self_s": own["sampling"],
            "sampling.rows_per_s": rate(tot["sampling.rows"], busy["sampling"]),
            "sampling.realized_frac": (tot["sampling.realized"] / tot["sampling.hashed"]
                                       if tot["sampling.hashed"] else 0.0),
            "sampling.block_mb": block_bytes / 1e6,
        }
        for solver in ("kuhn", "primal_dual", "general"):
            lab = "matching." + solver
            m[lab + ".solves"] = calls[lab]
            m[lab + ".busy_s"] = busy[lab]
            if solver != "general":
                m[lab + ".graphs_per_s"] = rate(calls[lab], busy[lab])
        m.update({
            "matching.subset_sweep.masks": tot["matching.subset_sweep.masks"],
            "matching.subset_sweep.busy_s": busy["matching.subset_sweep"],
            "matching.subset_sweep.masks_per_s": rate(tot["matching.subset_sweep.masks"],
                                                      busy["matching.subset_sweep"]),
            "matching.failed": tot["matching.failed"],
            "schemes.calls": calls["schemes"],
            "schemes.busy_s": busy["schemes"],
            "kernels.checks": tot["kernels.checks"],
            "kernels.failed_checks": tot["kernels.failed_checks"],
            "kernels.busy_s": busy["kernels"],
            "estimate.calls": calls["estimate"],
            "estimate.samples": tot["estimate.samples"],
            "estimate.masks": tot["estimate.masks"],
            "estimate.self_s": own["estimate"],
            "gallery.gen_s": setup_busy["gallery"],
            "model.validate_s": setup_busy["model"],
            "cli.self_s": own["cli"],
            "cli.bytes_out": cli_bytes,
            "cli.failed": cli_failed,
        })
        return m

    def span_tree(self) -> dict:
        """Count, total and self seconds per call path, e.g. ``cli/estimate/rng``."""
        selfs = self.self_times()
        paths: list[str] = []
        tree: dict[str, list] = {}
        for i, s in enumerate(self.spans):
            path = s[LABEL] if s[PARENT] < 0 else paths[s[PARENT]] + "/" + s[LABEL]
            paths.append(path)
            node = tree.setdefault(path, [0, 0.0, 0.0])
            node[0] += 1
            node[1] += s[END] - s[START]
            node[2] += selfs[i]
        return {p: {"count": c, "total_s": t, "self_s": st}
                for p, (c, t, st) in sorted(tree.items())}

    def write_spans(self, path) -> None:
        """Write the raw spans as ``[label, start_s, duration_s, parent]`` rows."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[s[LABEL], s[START] - t0, s[END] - s[START], s[PARENT]]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["label", "start_s", "duration_s", "parent"],
                       "spans": rows}, fh, separators=(",", ":"))
