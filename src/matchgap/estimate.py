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
from .matching import cover_solver, matching_values_over_subsets, value_solver
from .model import Instance, fractional_value
from .sampling import (block_degrees, realization_blocks, row_map, sample_values,
                       support_probabilities)
from .schemes import SchemeConfig, block_edge_masses

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

#: Support masks whose scheme masses are computed together; their work
#: arrays stay in the tens of kilobytes (4,096 masks added ~4 MB of peak
#: memory to exact mass certify on a 13-edge instance).
_MASK_CHUNK = 256


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

    def to_dict(self) -> dict:
        return {
            "value": self.value,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "method": self.method,
            "samples": self.samples,
            "seed": self.seed,
        }

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


def mc_ratio(inst: Instance, samples: int, seed: int,
             start_index: int = 0) -> RatioEstimate:
    """Monte Carlo ratio estimate from `samples` independent draws.

    Sample i consumes counter stream start_index + i, so the estimate is a
    pure function of (seed, samples, start_index) no matter how the work
    is split into blocks or across workers (`sampling.sample_values`).
    """
    if samples <= 0:
        raise ValueError("need at least one sample")
    denom = fractional_value(inst)
    if denom <= 0.0:
        raise ZeroDenominator("fractional value is zero; ratio undefined")
    vals = sample_values(inst, value_solver(inst), seed, start_index, samples)
    mean = float(vals.mean())
    if samples > 1:
        half = _Z95 * float(vals.std(ddof=1)) / math.sqrt(samples)
    else:
        half = 0.0
    return RatioEstimate(value=mean / denom, ci_low=(mean - half) / denom,
                         ci_high=(mean + half) / denom, method="monte_carlo",
                         samples=samples, seed=seed)


# -- per-edge certificates ----------------------------------------------------

def per_edge_masses_exact(inst: Instance, scheme: str = "weighted",
                          cfg: SchemeConfig = SchemeConfig()) -> np.ndarray:
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
            yield (c[:, None] & bits) != 0, probs[c]

    # such a mask holds every edge of x = 1 and half of those of 0 < x < 1
    x = inst.x
    realized = np.count_nonzero(x == 1.0) + 0.5 * np.count_nonzero((x > 0.0) & (x < 1.0))
    return _scheme_mass_sum(inst, blocks, len(masks), realized, scheme, cfg)


def _scheme_mass_sum(inst: Instance, blocks, count: int, realized: float, scheme: str,
                     cfg: SchemeConfig) -> np.ndarray:
    """Per edge, the sum of p * (scheme mass) over rows 0..count-1,
    added row by row in order.  `blocks(first, stop)` yields (realization
    block, p per row) for rows first..stop-1, p None for all ones; rows
    hold `realized` edges on average.  The rows go through `row_map`."""
    cover = cover_solver(inst)

    def fill(first, stop):
        for block, p in blocks(first, stop):
            masses = block_edge_masses(inst, block, cover(block), scheme, cfg)
            if p is not None:
                masses *= p[:, None]
            yield masses

    m = inst.num_edges
    acc = np.zeros(m, dtype=np.float64)
    # a cover row's cost in draws, as measured for `sampling.SPLIT_MIN_WORK`
    for rows in row_map(fill, count, m, count * (m + 800 * realized)):
        acc = _add_rows(acc, rows)
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


def _deterministic_transfers(inst: Instance, edge: int, c: float,
                             inc: list[list[int]]) -> float:
    # a term per edge sharing an endpoint, added one by one in index order;
    # float_power is C pow() like a scalar's ** (an array's ** 2 squares)
    gu, gv = inst.endpoints[edge].tolist()
    js, shared = np.unique(inc[gu] + inc[gv], return_counts=True)
    keep = js != edge
    xe, xj = inst.x[edge], inst.x[js[keep]]
    net = 0.0
    for term in (shared[keep] * c * (np.float_power(xj, 2) * xe - xe ** 2 * xj)).tolist():
        net += term
    return net


def _kernel_means_mc(inst: Instance, samples: int, seed: int) -> np.ndarray:
    """Per edge e, the mean over samples 0..samples-1 of
    1/max(deg u, deg v) in the sample with e forced realized (conditioning
    on e by independence).

    One block serves every edge: with realized degrees deg = R . incidence,
    forcing e gives deg - r_e + 1 at both endpoints.  Sums run sample by
    sample in index order.
    """
    ends = inst.endpoints

    def fill(first, stop):
        for block in realization_blocks(inst, seed, first, stop - first):
            deg = block_degrees(inst, block)
            yield 1.0 / np.maximum(deg[:, ends[:, 0]] - block + 1, deg[:, ends[:, 1]] - block + 1)

    m = inst.num_edges
    total = np.zeros(m, dtype=np.float64)
    # a kernel row's cost in draws, as measured for `sampling.SPLIT_MIN_WORK`
    for rows in row_map(fill, samples, m, samples * m * 9):
        total = _add_rows(total, rows)
    return total / samples


def _certificates(inst: Instance, edges: list[int], mode: str, scheme: str, bound: str,
                  samples: int, seed: int, cfg: SchemeConfig) -> dict[int, float]:
    if inst.kind != "bipartite":
        raise TypeError("per-edge certificates require a bipartite instance")
    if scheme == "unweighted" and not inst.is_unweighted:
        raise ValueError("unweighted scheme requires unit weights")
    if mode == "mc" and samples <= 0:
        raise ValueError("need at least one sample")

    if bound == "kernel":
        if mode == "exact" or scheme == "unweighted":
            inc = _incident_edges(inst)
        if mode == "exact":
            # Conditional on e being realized, the two endpoint degrees are
            # 1 + independent Poisson-binomial sums of the other incident edges.
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
            x = inst.x.tolist()
            return {j: base[j] + _deterministic_transfers(inst, j, cfg.c, inc) / x[j]
                    for j in edges}
        return base

    if bound != "mass":
        raise ValueError(f"unknown bound {bound!r}")
    if mode == "exact":
        masses = per_edge_masses_exact(inst, scheme, cfg)
    elif mode == "mc":
        def blocks(first, stop):
            return ((b, None) for b in realization_blocks(inst, seed, first, stop - first))

        masses = _scheme_mass_sum(inst, blocks, samples, float(inst.x.sum()), scheme,
                                  cfg) / samples
    else:
        raise ValueError(f"unknown mode {mode!r}")
    w, x = inst.w.tolist(), inst.x.tolist()
    return {j: float(masses[j]) / (w[j] * x[j]) for j in edges}


def per_edge_certificate(inst: Instance, edge: int, mode: str = "exact",
                         scheme: str = "weighted", bound: str = "mass",
                         samples: int = 10000, seed: int = 0,
                         cfg: SchemeConfig = SchemeConfig()) -> float:
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
    return _certificates(inst, [edge], mode, scheme, bound, samples, seed, cfg)[edge]


def per_edge_certificates(inst: Instance, mode: str = "exact",
                          scheme: str = "weighted", bound: str = "mass",
                          samples: int = 10000, seed: int = 0,
                          cfg: SchemeConfig = SchemeConfig()) -> dict[int, float]:
    """Certificates of every edge with x_e > 0, keyed by edge index.

    Entry j equals ``per_edge_certificate(inst, j, ...)``; one enumeration
    or one pass over the samples serves all edges.
    """
    edges = np.flatnonzero(inst.x > 0).tolist()
    return _certificates(inst, edges, mode, scheme, bound, samples, seed, cfg)


def ratio_floor(inst: Instance) -> float:
    """The advertised floor for an instance's class."""
    if inst.kind == "general":
        return kernels.GENERAL_GRAPH_FLOOR
    if inst.is_unweighted:
        return kernels.UNWEIGHTED_BIPARTITE_TARGET
    return kernels.WEIGHTED_BIPARTITE_FLOOR
