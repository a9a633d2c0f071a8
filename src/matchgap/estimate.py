"""Ratio and per-edge certificate estimation, exact and Monte Carlo.

The headline quantity is E[nu_w(G)] / sum_e w_e x_e.  Exact mode sums the
matching weight over the full support; Monte Carlo mode averages over
counter-seeded samples with a normal-approximation confidence interval.
Per-edge certificates measure how much expected mass a distribution
scheme routes to one edge, relative to w_e x_e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import kernels
from .matching import (LOCKSTEP_MIN_ROWS, cover_solver, matching_values_over_subsets,
                       value_solver)
from .model import Instance, fractional_value
from .sampling import (block_degrees, block_rows, realization_blocks, row_map, sample_values,
                       support_probabilities)
from .schemes import DEFAULT_TRANSFER, _transfers, block_edge_masses

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

#: Support masks whose covers and scheme masses are computed together:
#: enough rows for the lockstep covers (``matching.LOCKSTEP_MIN_ROWS``) with
#: work arrays of a few hundred kilobytes.  On a 13-edge instance exact mass
#: certify peaked 0.6 MB over import with 256 or 512 masks, 0.9 MB with 768
#: and 1.7 MB with 1,024; on 19 edges it took 3.0-3.1 s with 512 masks,
#: 2.5-2.7 s with 768 and 2.4-2.6 s with 1,024.
_MASK_CHUNK = 768


class ZeroDenominator(ValueError):
    """The fractional objective vanishes, the ratio is undefined."""


@dataclass(frozen=True)
class RatioEstimate:
    """Point estimate of E[nu_w(G)] / sum w_e x_e with a 95% interval."""

    value: float
    ci_low: float
    ci_high: float
    method: str  # "exact" | "monte_carlo"
    samples: int
    seed: Optional[int]

    def csv_row(self, instance_id: str) -> list:
        return [instance_id, self.method, repr(self.value), repr(self.ci_low),
                repr(self.ci_high), self.samples,
                "" if self.seed is None else self.seed]


CSV_HEADER = ["instance_id", "method", "value", "ci_low", "ci_high", "samples", "seed"]


def exact_ratio(inst: Instance) -> RatioEstimate:
    """Exact E[nu_w] / sum w x by full support enumeration."""
    denom = fractional_value(inst)
    if denom <= 0.0:
        raise ZeroDenominator("fractional value is zero; ratio undefined")
    value = expected_matching_value(inst) / denom
    return RatioEstimate(value=value, ci_low=value, ci_high=value,
                         method="exact", samples=0, seed=None)


def expected_matching_value(inst: Instance) -> float:
    """Exact E[nu_w(G)] over the support (cutoff applies)."""
    probs = support_probabilities(inst)
    return float(probs @ matching_values_over_subsets(inst))


def mc_ratio(inst: Instance, samples: int, seed: int) -> RatioEstimate:
    """Monte Carlo ratio estimate from `samples` independent draws.

    Sample i consumes counter stream i, so the estimate is a pure function
    of (seed, samples) no matter how the work is split into blocks or
    across workers (`sampling.sample_values`).
    """
    if samples <= 0:
        raise ValueError("need at least one sample")
    denom = fractional_value(inst)
    if denom <= 0.0:
        raise ZeroDenominator("fractional value is zero; ratio undefined")
    vals = sample_values(inst, value_solver(inst), seed, 0, samples)
    mean = float(vals.mean())
    if samples > 1:
        half = _Z95 * float(vals.std(ddof=1)) / math.sqrt(samples)
    else:
        half = 0.0
    return RatioEstimate(value=mean / denom, ci_low=(mean - half) / denom,
                         ci_high=(mean + half) / denom, method="monte_carlo",
                         samples=samples, seed=seed)


# -- per-edge certificates ----------------------------------------------------

def per_edge_masses_exact(inst: Instance, scheme: str = "weighted") -> np.ndarray:
    """Exact E[t_e] for every edge under the chosen scheme: the scheme
    masses of the masks with nonzero probability, weighted by it and
    added in mask order."""
    if inst.kind != "bipartite":
        raise TypeError("per-edge certificates require a bipartite instance")
    probs = support_probabilities(inst)
    bits = 1 << np.arange(inst.num_edges)
    masks = np.flatnonzero(probs)

    def blocks(first, stop):
        for i in range(first, stop, _MASK_CHUNK):
            c = masks[i:min(i + _MASK_CHUNK, stop)]
            yield np.flatnonzero((c[:, None] & bits) != 0), len(c), probs[c]

    # such a mask holds every edge of x = 1 and half of those of 0 < x < 1
    x = inst.x
    realized = np.count_nonzero(x == 1.0) + 0.5 * np.count_nonzero((x > 0.0) & (x < 1.0))
    return _scheme_mass_sum(inst, blocks, len(masks), realized, _MASK_CHUNK, scheme)


def _scheme_mass_sum(inst: Instance, blocks, count: int, realized: float, rows: int,
                     scheme: str) -> np.ndarray:
    """Per edge, the sum of p * (scheme mass) over rows 0..count-1,
    added row by row in order.  `blocks(first, stop)` yields (flat, rows,
    p) for rows first..stop-1: a realization block as
    `sampling.realization_blocks` gives it and p per row, None for all
    ones, in blocks of up to `rows` rows that hold `realized` edges on
    average.  The rows go through `row_map`."""
    cover = cover_solver(inst)

    def fill(first, stop):
        for flat, rows, p in blocks(first, stop):
            masses = block_edge_masses(inst, flat, cover(flat, rows), scheme)
            if p is not None:
                masses *= p[:, None]
            yield masses

    m = inst.num_edges
    acc = np.zeros(m, dtype=np.float64)
    # a cover row's cost in draws per realized edge, as measured for
    # `sampling.SPLIT_MIN_WORK`: lower where the rows go through the lockstep
    draws = 280 if min(rows, count) >= LOCKSTEP_MIN_ROWS else 870
    for piece in row_map(fill, count, m, count * (m + draws * realized)):
        acc = _add_rows(acc, piece)
    return acc


def _add_rows(acc: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """acc plus the rows of `rows`, added one row at a time in order (the
    summation order every per-edge sum keeps); overwrites rows[0]."""
    rows[0] += acc
    return np.cumsum(rows, axis=0)[-1]


def _incident_edges(inst: Instance) -> list[list[int]]:
    """Per global vertex, the indices of its incident edges, ascending."""
    inc: list[list[int]] = [[] for _ in range(inst.total_vertices)]
    for j, (a, b) in enumerate(inst.endpoints.tolist()):
        inc[a].append(j)
        inc[b].append(j)
    return inc


def _kernel_means_mc(inst: Instance, samples: int, seed: int) -> np.ndarray:
    """Per edge e, the mean over samples 0..samples-1 of
    1/max(deg u, deg v) in the sample with e forced realized (conditioning
    on e by independence).

    One block serves every edge: with realized degrees deg = R . incidence,
    forcing e gives deg - r_e + 1 at both endpoints, so the larger is
    max(deg u, deg v) + 1, less 1 where e is realized.  Sums run sample by
    sample in index order.
    """
    ends = inst.endpoints

    def fill(first, stop):
        for flat, rows in realization_blocks(inst, seed, first, stop - first):
            deg = block_degrees(inst, flat, rows)
            top = np.maximum(deg[:, ends[:, 0]], deg[:, ends[:, 1]]) + 1
            top[np.divmod(flat, max(len(ends), 1))] -= 1
            yield 1.0 / top

    m = inst.num_edges
    total = np.zeros(m, dtype=np.float64)
    # a kernel row's cost in draws, as measured for `sampling.SPLIT_MIN_WORK`
    for rows in row_map(fill, samples, m, samples * m * 9):
        total = _add_rows(total, rows)
    return total / samples


def _certificates(inst: Instance, edges: list[int], mode: str, scheme: str, bound: str,
                  samples: int, seed: int) -> dict[int, float]:
    if inst.kind != "bipartite":
        raise TypeError("per-edge certificates require a bipartite instance")
    if scheme == "unweighted" and not inst.is_unweighted:
        raise ValueError("unweighted scheme requires unit weights")
    if mode == "mc" and samples <= 0:
        raise ValueError("need at least one sample")

    if bound == "kernel":
        if mode == "exact":
            # Conditional on e being realized, the two endpoint degrees are
            # 1 + independent Poisson-binomial sums of the other incident edges.
            inc = _incident_edges(inst)
            ends, x = inst.endpoints.tolist(), inst.x.tolist()
            base = {j: kernels.inv_max_expectation([x[k] for k in inc[ends[j][0]] if k != j],
                                                   [x[k] for k in inc[ends[j][1]] if k != j])
                    for j in edges}
        elif mode == "mc":
            means = _kernel_means_mc(inst, samples, seed)
            base = {j: float(means[j]) for j in edges}
        else:
            raise ValueError(f"unknown mode {mode!r}")
        if scheme == "unweighted":
            x, moved = inst.x.tolist(), (DEFAULT_TRANSFER * _transfers(inst)).tolist()
            return {j: base[j] + moved[j] / x[j] for j in edges}
        return base

    if bound != "mass":
        raise ValueError(f"unknown bound {bound!r}")
    if mode == "exact":
        masses = per_edge_masses_exact(inst, scheme)
    elif mode == "mc":
        def blocks(first, stop):
            return ((flat, rows, None)
                    for flat, rows in realization_blocks(inst, seed, first, stop - first))

        masses = _scheme_mass_sum(inst, blocks, samples, float(inst.x.sum()),
                                  block_rows(inst, samples), scheme) / samples
    else:
        raise ValueError(f"unknown mode {mode!r}")
    w, x = inst.w.tolist(), inst.x.tolist()
    return {j: float(masses[j]) / (w[j] * x[j]) for j in edges}


def per_edge_certificate(inst: Instance, edge: int, mode: str = "exact",
                         scheme: str = "weighted", bound: str = "mass",
                         samples: int = 10000, seed: int = 0) -> float:
    """Certificate of edge `edge` under a distribution scheme.

    bound="mass" returns E[t_e] / (w_e x_e) with the solver's cover, the
    realized mass actually routed to the edge.  bound="kernel" returns the
    cover-independent lower bound that the certified floors control:
    E[1/max(deg u, deg v) | e realized], plus the deterministic transfers
    divided by x_e for the unweighted scheme.  The mass form dominates the
    kernel form, so both certify the same floors; worst-case instances
    approach the floor only through the kernel form.
    """
    if inst.kind != "bipartite":
        raise TypeError("per-edge certificates require a bipartite instance")
    if not (0 <= edge < inst.num_edges):
        raise IndexError("edge index out of range")
    if inst.x[edge] == 0.0:
        raise ZeroDenominator("edge probability is zero; certificate undefined")
    return _certificates(inst, [edge], mode, scheme, bound, samples, seed)[edge]


def per_edge_certificates(inst: Instance, mode: str = "exact",
                          scheme: str = "weighted", bound: str = "mass",
                          samples: int = 10000, seed: int = 0) -> dict[int, float]:
    """Certificates of every edge with x_e > 0, keyed by edge index.

    Entry j equals ``per_edge_certificate(inst, j, ...)``; one enumeration
    or one pass over the samples serves all edges.
    """
    edges = np.flatnonzero(inst.x > 0).tolist()
    return _certificates(inst, edges, mode, scheme, bound, samples, seed)


def ratio_floor(inst: Instance) -> float:
    """The advertised floor for an instance's class."""
    if inst.kind == "general":
        return kernels.GENERAL_GRAPH_FLOOR
    if inst.is_unweighted:
        return kernels.UNWEIGHTED_BIPARTITE_TARGET
    return kernels.WEIGHTED_BIPARTITE_FLOOR
