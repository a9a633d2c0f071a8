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
from .matching import (matching_values_over_subsets, max_weight_matching_bipartite,
                       value_solver)
from .model import Instance, fractional_value
from .sampling import (SampledGraph, realization_blocks, sampled_graphs,
                       support_probabilities)
from .schemes import SchemeConfig, unweighted_scheme, weighted_scheme

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


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
    probs = support_probabilities(inst)  # raises SupportTooLarge beyond cutoff
    nus = matching_values_over_subsets(inst)
    value = float(probs @ nus) / denom
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
    is split into blocks or across workers.
    """
    if samples <= 0:
        raise ValueError("need at least one sample")
    denom = fractional_value(inst)
    if denom <= 0.0:
        raise ZeroDenominator("fractional value is zero; ratio undefined")
    solve = value_solver(inst)
    vals = np.fromiter((solve(g) for g in sampled_graphs(inst, seed, start_index, samples)),
                       dtype=np.float64, count=samples)
    mean = float(vals.mean())
    if samples > 1:
        half = _Z95 * float(vals.std(ddof=1)) / math.sqrt(samples)
    else:
        half = 0.0
    return RatioEstimate(value=mean / denom, ci_low=(mean - half) / denom,
                         ci_high=(mean + half) / denom, method="monte_carlo",
                         samples=samples, seed=seed)


# -- per-edge certificates ----------------------------------------------------

def _scheme_masses(g: SampledGraph, scheme: str, cfg: SchemeConfig) -> np.ndarray:
    _, nu, cover = max_weight_matching_bipartite(g)
    if scheme == "weighted":
        return weighted_scheme(g, cover).edge_mass
    if scheme == "unweighted":
        return unweighted_scheme(g, cover, cfg).edge_mass
    raise ValueError(f"unknown scheme {scheme!r}")


def per_edge_masses_exact(inst: Instance, scheme: str = "weighted",
                          cfg: SchemeConfig = SchemeConfig()) -> np.ndarray:
    """Exact E[t_e] for every edge under the chosen scheme."""
    if inst.kind != "bipartite":
        raise TypeError("per-edge certificates require a bipartite instance")
    probs = support_probabilities(inst)
    m = inst.num_edges
    bits = 1 << np.arange(m)
    acc = np.zeros(m, dtype=np.float64)
    for mask in range(1 << m):
        p = probs[mask]
        if p == 0.0:
            continue
        g = SampledGraph(inst, (mask & bits) != 0)
        acc += p * _scheme_masses(g, scheme, cfg)
    return acc


def _kernel_certificate_exact(inst: Instance, edge: int, scheme: str,
                              cfg: SchemeConfig) -> float:
    # Conditional on e being realized, the two endpoint degrees are
    # 1 + independent Poisson-binomial sums of the other incident edges.
    e = inst.edges[edge]
    gu, gv = (int(v) for v in inst.endpoints[edge])
    ends = inst.endpoints
    at_u = [float(inst.x[j]) for j in range(inst.num_edges)
            if j != edge and (int(ends[j][0]) == gu or int(ends[j][1]) == gu)]
    at_v = [float(inst.x[j]) for j in range(inst.num_edges)
            if j != edge and (int(ends[j][0]) == gv or int(ends[j][1]) == gv)]
    value = kernels.inv_max_expectation(at_u, at_v)
    if scheme == "unweighted":
        value += _deterministic_transfers(inst, edge, cfg.c) / e.x
    return float(value)


def _deterministic_transfers(inst: Instance, edge: int, c: float) -> float:
    x = inst.x
    ends = inst.endpoints
    gu, gv = ends[edge]
    xe = x[edge]
    net = 0.0
    for j in range(inst.num_edges):
        if j == edge:
            continue
        shared = len({int(ends[j][0]), int(ends[j][1])} & {int(gu), int(gv)})
        if shared:
            net += shared * c * (x[j] ** 2 * xe - xe ** 2 * x[j])
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
    nv = inst.total_vertices
    total = np.zeros(inst.num_edges, dtype=np.float64)
    for block in realization_blocks(inst, seed, 0, samples):
        rows, cols = np.nonzero(block)
        base = rows * nv
        deg = np.bincount(np.concatenate([base + ends[cols, 0], base + ends[cols, 1]]),
                          minlength=len(block) * nv).reshape(len(block), nv)
        inv = 1.0 / np.maximum(deg[:, ends[:, 0]] - block + 1, deg[:, ends[:, 1]] - block + 1)
        inv[0] += total
        total = np.cumsum(inv, axis=0)[-1]
    return total / samples


def _mass_sums_mc(inst: Instance, samples: int, seed: int, scheme: str,
                  cfg: SchemeConfig) -> np.ndarray:
    acc = np.zeros(inst.num_edges, dtype=np.float64)
    for g in sampled_graphs(inst, seed, 0, samples):
        acc += _scheme_masses(g, scheme, cfg)
    return acc


def _certificates(inst: Instance, edges: list[int], mode: str, scheme: str, bound: str,
                  samples: int, seed: int, cfg: SchemeConfig) -> dict[int, float]:
    if inst.kind != "bipartite":
        raise TypeError("per-edge certificates require a bipartite instance")
    if scheme == "unweighted" and not inst.is_unweighted:
        raise ValueError("unweighted scheme requires unit weights")
    if mode == "mc" and samples <= 0:
        raise ValueError("need at least one sample")

    if bound == "kernel":
        if mode == "exact":
            return {j: _kernel_certificate_exact(inst, j, scheme, cfg) for j in edges}
        if mode == "mc":
            means = _kernel_means_mc(inst, samples, seed)
            if scheme == "unweighted":
                return {j: float(means[j] + _deterministic_transfers(inst, j, cfg.c)
                                 / inst.edges[j].x) for j in edges}
            return {j: float(means[j]) for j in edges}
        raise ValueError(f"unknown mode {mode!r}")

    if bound != "mass":
        raise ValueError(f"unknown bound {bound!r}")
    if mode == "exact":
        masses = per_edge_masses_exact(inst, scheme, cfg)
    elif mode == "mc":
        masses = _mass_sums_mc(inst, samples, seed, scheme, cfg) / samples
    else:
        raise ValueError(f"unknown mode {mode!r}")
    return {j: float(masses[j]) / (inst.edges[j].w * inst.edges[j].x) for j in edges}


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
    if inst.edges[edge].x == 0.0:
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
    edges = [j for j, e in enumerate(inst.edges) if e.x > 0]
    return _certificates(inst, edges, mode, scheme, bound, samples, seed, cfg)


def ratio_floor(inst: Instance) -> float:
    """The advertised floor for an instance's class."""
    if inst.kind == "general":
        return kernels.GENERAL_GRAPH_FLOOR
    if inst.is_unweighted:
        return kernels.UNWEIGHTED_BIPARTITE_TARGET
    return kernels.WEIGHTED_BIPARTITE_FLOOR
