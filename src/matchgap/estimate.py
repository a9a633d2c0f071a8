"""Ratio and per-edge certificate estimation, exact and Monte Carlo.

The headline quantity is E[nu_w(G)] / sum_e w_e x_e.  Exact mode sums the
matching weight over the full support; Monte Carlo mode averages over
counter-seeded samples with a normal-approximation confidence interval.
Per-edge certificates measure how much expected mass a distribution
scheme routes to one edge, relative to w_e x_e.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple, Optional

import numpy as np

from . import kernels
from .matching import cover_solver, matching_values_over_subsets, value_solver
from .model import Instance, fractional_value
from .sampling import (BLOCK_BYTES, block_degrees, block_groups, column_sums, join_blocks,
                       realization_blocks, row_map, sample_values, split_flat,
                       support_probabilities)
from .schemes import block_edge_masses, scheme_transfers

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

#: Support masks whose covers (one lockstep run) and scheme masses are
#: computed together.  On 13 edges exact mass peaked 0.7 MB (tracemalloc)
#: with 256 masks, 1.2 with 512, 1.6 with 768 and 2.2 with 1,024; on 19
#: edges it took 2.0-2.5 s, 1.7-1.9 s and 1.6-2.0 s with 512, 768 and 1,024.
_MASK_CHUNK = 768


class ZeroDenominator(ValueError):
    """The fractional objective vanishes, the ratio is undefined."""


class RatioEstimate(NamedTuple):
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

    def blocks(first, count):  # one chunk a block and a group
        for i in range(first, first + count, _MASK_CHUNK):
            c = masks[i:min(i + _MASK_CHUNK, first + count)]
            yield np.flatnonzero((c[:, None] & bits) != 0), len(c), probs[c]

    # such a mask holds every edge of x = 1 and half of those of 0 < x < 1
    x = inst.x
    realized = np.count_nonzero(x == 1.0) + 0.5 * np.count_nonzero((x > 0.0) & (x < 1.0))
    return _scheme_mass_sum(inst, blocks, _MASK_CHUNK, len(masks), realized, scheme)


def _scheme_mass_sum(inst: Instance, blocks, group: int, count: int, realized: float,
                     scheme: str) -> np.ndarray:
    """Per edge, the sum of p * (scheme mass) over rows 0..count-1, added
    row by row in order.  `blocks(first, count)` yields those rows as
    blocks (flat, rows) of `sampling.realization_blocks`, p = 1, or
    (flat, rows, p), with `realized` edges a row on average.  Each
    `sampling.block_groups` group of at least `group` rows takes one cover
    call, its scheme masses one a block.  The rows go through `row_map`."""
    cover = cover_solver(inst)
    moved = scheme_transfers(inst, scheme)
    m = inst.num_edges

    def fill(first, stop):
        for run in block_groups(blocks(first, stop - first), group):
            # one view of the covers per block, each dropped once used
            y = np.split(cover(*join_blocks(run, m)), np.cumsum([b[1] for b in run[:-1]]))
            for flat, _, *p in run:
                masses = block_edge_masses(inst, flat, y.pop(0), moved)
                if p:
                    masses *= p[0][:, None]
                yield masses

    # a cover's cost in draws per realized edge (`sampling.SPLIT_MIN_WORK`)
    return _row_sums(fill, count, m, count * (m + 280 * realized))


def _row_sums(fill, count: int, m: int, work: float) -> np.ndarray:
    """Column sums of the rows of `row_map(fill, count, m, work)`, added one
    row at a time in order (the summation order every per-edge sum keeps)."""
    acc = np.zeros(m, dtype=np.float64)
    for rows in row_map(fill, count, m, work):
        rows[0] += acc
        acc = column_sums(rows)
    return acc


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
    u, v = inst.endpoints.T

    def fill(first, stop):
        for flat, rows in realization_blocks(inst, seed, first, stop - first):
            deg = block_degrees(inst, flat, rows)
            top = np.maximum(deg[:, u], deg[:, v]) + 1
            top[split_flat(flat, len(u))] -= 1
            yield 1.0 / top

    # a kernel row's cost in draws, as measured for `sampling.SPLIT_MIN_WORK`
    return _row_sums(fill, samples, len(u), samples * len(u) * 9) / samples


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
            x, moved = inst.x.tolist(), scheme_transfers(inst, scheme).tolist()
            return {j: base[j] + moved[j] / x[j] for j in edges}
        return base

    if bound != "mass":
        raise ValueError(f"unknown bound {bound!r}")
    if mode == "exact":
        masses = per_edge_masses_exact(inst, scheme)
    elif mode == "mc":
        # realization blocks share one lockstep run until their (rows, 2n)
        # float64 covers fill a quarter of BLOCK_BYTES
        group = BLOCK_BYTES // max(32 * inst.total_vertices, 1)
        masses = _scheme_mass_sum(inst, partial(realization_blocks, inst, seed), group,
                                  samples, float(inst.x.sum()), scheme) / samples
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
