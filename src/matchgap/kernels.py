"""Analytic kernels: the expectations, coefficients, and inequalities that
certify the correlation-gap floors.

Everything here is numerical certification on grids, not symbolic proof.
The central quantity is E[1/(1 + max(Y, Z))] for independent sums of
Bernoulli variables Y, Z -- the conditional expectation of one over the
larger endpoint degree of a realized edge.  Supporting pieces: exact
Poisson-binomial pmfs, the cumulative gain coefficients, the truncated
double-Poisson series P_t, the unweighted envelope ratio, and the phi(t)
curve of expected matching weight under uniformly scaled probabilities.

The Poisson-binomial layer is batched: one row per Bernoulli vector.
`poisson_binomial_pmfs` folds column l into every row's pmf by the two-tap
recursion new[k] = pmf[k] q + pmf[k-1] p (q = 1 - p), the products and
two-term sums that np.convolve(pmf, [q, p]) forms, so each row equals the
sequential convolution bit for bit.  `gain_margins` sums each coefficient's
terms with np.sum along the rows of a C-contiguous array, which is numpy's
pairwise summation of each row on its own, as for a single vector.  The
single-vector functions are the batch of one, so a row's numbers do not
depend on the batch it was computed in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .matching import _subset_values, matching_values_over_subsets, value_solver
from .model import Instance, fractional_value
from .sampling import BLOCK_BYTES, SampledGraph, _subset_probabilities, sample_values
from .schemes import DEFAULT_TRANSFER

#: Floors certified by the three main bounds.  The advertised unweighted
#: floor 0.476 equals the x -> 0 endpoint of the envelope; the envelope's
#: true minimum over [0, 1] is ~0.46785 (at x ~ 0.22), so grid sweeps can
#: certify 0.467 but not 0.476.  See check_unweighted_envelope.
UNWEIGHTED_BIPARTITE_TARGET = 0.476
UNWEIGHTED_BIPARTITE_CERTIFIED = 0.467
WEIGHTED_BIPARTITE_FLOOR = 1.0 - 3.0 / (2.0 * math.e)
GENERAL_GRAPH_FLOOR = (math.e ** 2 - 1.0) / (2.0 * math.e ** 2)
#: Total count at which the double-Poisson series P_t is truncated, and the
#: last term of the Poisson tails in the weighted-kernel constant.
SERIES_TRUNCATION = 15
POISSON_TAIL_CUTOFF = 60


@dataclass(frozen=True)
class KernelConfig:
    """Resolution of the envelope check: the step of its grid over [0, 1]."""

    grid_step: float = 1e-3

    def __post_init__(self):
        if not envelope_step_ok(self.grid_step):
            raise ValueError(f"grid step must give 1 to {BLOCK_BYTES // 8} points in [0, 1]")


def envelope_step_ok(grid_step: float) -> bool:
    """Whether the envelope grid's ceil((1 + step / 2) / step) points are 1 to BLOCK_BYTES // 8."""
    return grid_step > 0.0 and (1.0 + grid_step / 2) / grid_step <= BLOCK_BYTES // 8


#: Most vectors a grid sweep pairs, and the longest vector of a minimizer
#: sweep: its pair table and its (m + 1)^2 kernel then hold at most 2**22
#: float64 entries, 32 MB each.  At m = 4, step 0.01 would pair 8,037
#: mean-1 vectors in a 517 MB table.
GRID_VECTOR_CUTOFF = 1 << 11


def minimizer_grid_ok(m: int, grid_step: float) -> bool:
    """Whether the minimizer sweeps of length-m vectors on `grid_step` (a
    step that divides 1, see `grid_units`) stay within GRID_VECTOR_CUTOFF."""
    return m < GRID_VECTOR_CUTOFF and _grid_vectors(m, grid_units(grid_step)) <= GRID_VECTOR_CUTOFF


def equal_split_grid_ok(m: int, grid_step: float, x0: float) -> bool:
    """Whether the equal-split sweep of length-m vectors on `grid_step` at
    `x0` pairs at most GRID_VECTOR_CUTOFF vectors."""
    top = int(math.floor((1.0 - x0) / grid_step + 1e-9))
    return _grid_vectors(m, top, cumulative=True) <= GRID_VECTOR_CUTOFF


def _grid_vectors(m: int, units: int, cumulative: bool = False) -> int:
    """How many nonincreasing length-m vectors of nonnegative integers sum
    to `units` (a minimizer sweep's), or with `cumulative` to 0..`units` (an
    equal-split sweep's): exact up to GRID_VECTOR_CUTOFF, and some larger
    count past it.  The vectors are the partitions into at most m parts,
    counted as their conjugates, the partitions into parts of at most m, by
    a DP that adds one part size at a time.  As the count only grows, the
    DP stops once it passes the cutoff; it does not start when the least
    count (each sum once; units // 2 + 1 splits in two parts) passes it."""
    if m < 1:
        return int(cumulative or units == 0)  # the empty vector, of sum 0
    if m == 1 and not cumulative:
        return 1
    least = units + 1 if cumulative else units // 2 + 1
    if least > GRID_VECTOR_CUTOFF:
        return least
    ways = [1] + [0] * units  # ways[s]: the sums s with the part sizes so far
    for part in range(1, min(m, units) + 1):
        for s in range(part, units + 1):
            ways[s] += ways[s - part]
        if (sum(ways) if cumulative else ways[-1]) > GRID_VECTOR_CUTOFF:
            break
    return sum(ways) if cumulative else ways[-1]


@dataclass
class CheckReport:
    """One certification result: what was checked, where the minimum sits."""

    check: str
    parameters: dict
    min_value: float
    argmin: object
    passed: bool
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "parameters": _jsonify(self.parameters),
            "min_value": _jsonify(self.min_value),
            "argmin": _jsonify(self.argmin),
            "passed": bool(self.passed),
            "details": _jsonify(self.details),
        }


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    return obj


# -- Poisson-binomial machinery ---------------------------------------------

def poisson_binomial_pmfs(probs) -> np.ndarray:
    """Exact pmfs of sums of independent Bernoulli variables, one per row:
    a (rows, L) array of probabilities gives a (rows, L + 1) array.  A
    probability outside [0, 1], NaN included, raises ValueError."""
    probs = np.asarray(probs, dtype=np.float64)
    outside = ~((probs >= 0.0) & (probs <= 1.0))
    if outside.any():
        raise ValueError(f"Bernoulli probability {float(probs[outside][0])} outside [0,1]")
    rows, length = probs.shape
    pmf = np.ones((rows, 1))
    for col in range(length):
        p = probs[:, col:col + 1]
        q = 1.0 - p
        new = np.empty((rows, col + 2))
        new[:, :1] = pmf[:, :1] * q
        new[:, 1:-1] = pmf[:, 1:] * q + pmf[:, :-1] * p
        new[:, -1:] = pmf[:, -1:] * p
        pmf = new
    return pmf


def poisson_binomial_pmf(probs: Sequence[float]) -> np.ndarray:
    """Exact pmf of a sum of independent Bernoulli(p_i): the batch of one."""
    return poisson_binomial_pmfs(np.array(probs, dtype=np.float64, ndmin=2))[0]


def _inv_max_kernel(size: int) -> np.ndarray:
    idx = np.arange(size)
    return 1.0 / (1.0 + np.maximum.outer(idx, idx))


def inv_max_expectation(y_probs: Sequence[float], z_probs: Sequence[float]) -> float:
    """Exact E[1/(1 + max(Y, Z))] from the two Poisson-binomial pmfs."""
    return inv_max_expectation_pmf(poisson_binomial_pmf(y_probs), poisson_binomial_pmf(z_probs))


def inv_max_expectation_pmf(py: np.ndarray, pz: np.ndarray) -> float:
    """E[1/(1 + max(Y, Z))] for independent Y, Z with pmfs py, pz."""
    size = max(len(py), len(pz))
    if len(py) < size:
        py = np.pad(py, (0, size - len(py)))
    if len(pz) < size:
        pz = np.pad(pz, (0, size - len(pz)))
    return float(py @ _inv_max_kernel(size) @ pz)


def _gain_table(pmfs: np.ndarray, j_max: int) -> np.ndarray:
    """Row r, column j - 1: the cumulative inverse-moment gap
    g_j = sum_{i<j} Pr[Y=i] (1/(1+i) - 1/(1+j)) of the sum Y whose pmf is
    pmfs[r], for j = 1..j_max."""
    out = np.empty((len(pmfs), j_max), dtype=np.float64)
    for j in range(1, j_max + 1):
        k = min(j, pmfs.shape[1])
        # np.sum adds each row pairwise, as it adds one vector, only while the
        # term matrix is C-contiguous; a fancy-indexed pmfs[:, arange(k)] is not
        terms = pmfs[:, :k] * (1.0 / (1.0 + np.arange(k)) - 1.0 / (1.0 + j))
        out[:, j - 1] = np.sum(terms, axis=1)
    return out


def gain_margins(probs) -> tuple[np.ndarray, np.ndarray]:
    """Gain coefficients and margins g_2 / 2 - g_j / j (j = 3..j_max) of
    every row of a (rows, L) array of Bernoulli vectors, each of mean 1.

    j_max is max(L, 3).  Returns g, (rows, j_max), and the margins,
    (rows, j_max - 2); a row whose probabilities, summed left to right,
    miss 1 by more than 1e-9 is refused.
    """
    probs = np.asarray(probs, dtype=np.float64)
    totals = np.zeros(len(probs))
    for col in probs.T:
        totals = totals + col
    off = np.abs(totals - 1.0) > 1e-9
    if off.any():
        raise ValueError(f"gain check requires mean 1, got {float(totals[off][0])}")
    g = _gain_table(poisson_binomial_pmfs(probs), max(probs.shape[1], 3))
    return g, g[:, 1:2] / 2.0 - g[:, 2:] / np.arange(3, g.shape[1] + 1)


def check_gain_ratios(probs: Sequence[float], tolerance: float = 1e-9) -> CheckReport:
    """For a mean-1 Bernoulli sum, verify g_2 / 2 >= g_j / j for j >= 3."""
    probs = np.array(probs, dtype=np.float64, ndmin=2)
    g, margins = gain_margins(probs)
    g, margins = g[0], margins[0]
    arg = int(np.argmin(margins))
    min_margin = float(margins[arg])
    return CheckReport(
        check="gain_ratios",
        parameters={"m": probs.shape[1], "j_max": len(g), "tolerance": tolerance},
        min_value=min_margin,
        argmin=arg + 3,
        passed=bool(min_margin >= -tolerance),
        details={"g": g.tolist()},
    )


# -- grid sweeps over Bernoulli vectors --------------------------------------

def _unit_partitions(total: int, parts: int, cap: int):
    """Nonincreasing tuples of `parts` integers in [0, cap] summing to total,
    in decreasing lexicographic order."""
    out = []
    # depth first on an explicit stack of (prefix, remaining, bound): a
    # prefix's extensions are pushed smallest part first, so the largest
    # comes off first
    stack = [((), total, cap)]
    while stack:
        prefix, remaining, bound = stack.pop()
        slots = parts - len(prefix)
        if remaining == 0:
            out.append(prefix + (0,) * slots)
        elif slots > 0:
            low = -(-remaining // slots)  # ceil: keep nonincreasing order feasible
            stack.extend((prefix + (v,), remaining - v, v)
                         for v in range(low, min(bound, remaining) + 1))
    return out


def grid_units(grid_step: float) -> int:
    """The steps of `grid_step` in 1, refusing a step that does not divide 1."""
    units = round(1.0 / grid_step)
    if abs(units * grid_step - 1.0) > 1e-12:
        raise ValueError("grid step must divide 1")
    return units


def _mean1_grid(m: int, grid_step: float):
    """Nonincreasing length-m vectors of grid units that sum to 1 (mean 1),
    refusing a grid past `minimizer_grid_ok`."""
    if not minimizer_grid_ok(m, grid_step):
        raise ValueError(f"grid step {grid_step} at m = {m} is too fine: a minimizer sweep "
                         f"pairs at most {GRID_VECTOR_CUTOFF} vectors of length below "
                         f"{GRID_VECTOR_CUTOFF}")
    units = grid_units(grid_step)
    return _unit_partitions(units, m, units)


def binomial_max1_kernel(m: int) -> float:
    """E[1/(1 + max(1, Y))] for Y ~ Binomial(m, 1/m), exactly."""
    return _max1_expectation(poisson_binomial_pmf([1.0 / m] * m))


def _max1_expectation(pmf: np.ndarray) -> float:
    """E[1/(1 + max(1, Y))] for Y with pmf `pmf`."""
    k = np.arange(len(pmf))
    return float(np.sum(pmf / (1.0 + np.maximum(1, k))))


def verify_kernel_minimizer(m: int, grid_step: float = 0.05,
                            tolerance: float = 1e-9) -> CheckReport:
    """Sweep all mean-1 Bernoulli pairs (Y, Z) of length m on a grid and
    confirm E[1/(1+max(Y,Z))] never beats E[1/(1+max(1, Y_U))] with
    Y_U ~ Binomial(m, 1/m).

    The comparison uses max(1, Y_U): the plain form E[1/(1+Y_U)] is
    strictly larger for m >= 2 and grid points beat it, so it cannot be
    the intended reference.  Both values are reported.
    """
    vectors = _mean1_grid(m, grid_step)
    pmfs = poisson_binomial_pmfs(np.array(vectors) * grid_step)
    table = pmfs @ _inv_max_kernel(m + 1) @ pmfs.T
    flat = int(np.argmin(table))
    iy, iz = divmod(flat, len(vectors))
    min_value = float(table[iy, iz])

    # Binomial(m, 1/m), folded once for both references
    pmf_u = poisson_binomial_pmf([1.0 / m] * m)
    reference = _max1_expectation(pmf_u)
    literal_reference = float(np.sum(pmf_u / (1.0 + np.arange(m + 1))))
    argmin = (tuple(u * grid_step for u in vectors[iy]),
              tuple(u * grid_step for u in vectors[iz]))
    return CheckReport(
        check="kernel_pair_minimum",
        parameters={"m": m, "grid_step": grid_step, "tolerance": tolerance},
        min_value=min_value,
        argmin=argmin,
        passed=bool(min_value >= reference - tolerance),
        details={
            "reference": reference,
            "margin": min_value - reference,
            "literal_reference": literal_reference,
            "literal_form_holds": bool(min_value >= literal_reference - tolerance),
            "grid_points": len(vectors),
        },
    )


def verify_uniform_minimizer(m: int, grid_step: float = 0.05,
                             tolerance: float = 1e-9) -> CheckReport:
    """Confirm E[1/(1 + max(1, Y))] over mean-1 grid vectors is minimized
    by the uniform vector (1/m, ..., 1/m)."""
    vectors = _mean1_grid(m, grid_step)
    k = np.arange(m + 1)
    weights = 1.0 / (1.0 + np.maximum(1, k))
    values = np.array([float(pmf @ weights)
                       for pmf in poisson_binomial_pmfs(np.array(vectors) * grid_step)])
    i = int(np.argmin(values))
    reference = binomial_max1_kernel(m)
    return CheckReport(
        check="uniform_minimizer",
        parameters={"m": m, "grid_step": grid_step, "tolerance": tolerance},
        min_value=float(values[i]),
        argmin=tuple(u * grid_step for u in vectors[i]),
        passed=bool(values[i] >= reference - tolerance),
        details={"reference": reference, "margin": float(values[i]) - reference},
    )


def verify_equal_split(x0: float, m: int, grid_step: float = 0.05,
                       c: float = DEFAULT_TRANSFER, tolerance: float = 1e-9) -> CheckReport:
    """`verify_equal_splits` at one x0."""
    return verify_equal_splits([x0], m, grid_step, c, tolerance)[0]


def verify_equal_splits(x0s: Sequence[float], m: int, grid_step: float = 0.05,
                        c: float = DEFAULT_TRANSFER,
                        tolerance: float = 1e-9) -> list[CheckReport]:
    """At each x0 of `x0s`, sweep the pair objective
        x0 E[1/(1+max(Y,Z))] + c sum_i (x0 y_i^2 - x0^2 y_i) + same in z
    on a grid with sum(y), sum(z) <= 1 - x0 and
    confirm the equal-split point attains the minimum inside every
    (sum y, sum z) bucket.  What does not depend on x0 is computed once, up
    to the largest sum an x0 needs; each x0 slices it, in a lone x0's float order."""
    if not all(0.0 < x0 <= 1.0 for x0 in x0s):
        raise ValueError("x0 must lie in (0, 1]")
    tops = [int(math.floor((1.0 - x0) / grid_step + 1e-9)) for x0 in x0s]
    sums = range(max(tops) + 1)  # an empty x0s has no largest sum: ValueError
    if not equal_split_grid_ok(m, grid_step, min(x0s)):
        raise ValueError(f"grid step {grid_step} at m = {m} is too fine: an equal-split "
                         f"sweep pairs at most {GRID_VECTOR_CUTOFF} vectors")
    all_vecs, starts = [], []  # starts[s]: the first row of all_vecs summing to s units
    for s in sums:
        starts.append(len(all_vecs))
        all_vecs += _unit_partitions(s, m, s)
    starts.append(len(all_vecs))
    pmfs = poisson_binomial_pmfs(np.array(all_vecs) * grid_step)
    kernel = _inv_max_kernel(m + 1)
    squares = np.array([sum((u * grid_step) ** 2 for u in vec) for vec in all_vecs])
    totals = np.array([sum(u * grid_step for u in vec) for vec in all_vecs])
    # per sum s, the equal-split point's pmf, sum of squares and products with the
    # kernel and each such pmf: inv_max_expectation_pmf's, as both have m + 1 entries
    eqs = [[s * grid_step / m] * m for s in sums]
    eq_pmfs = poisson_binomial_pmfs(np.array(eqs))
    eq_squares = np.array([sum(v ** 2 for v in eq) for eq in eqs])
    eq_dots = np.array([[float(row @ pmf) for pmf in eq_pmfs]
                        for row in (pmf @ kernel for pmf in eq_pmfs)])
    reports = []
    for x0, top in zip(x0s, tops):
        rows, bounds = starts[top + 1], starts[:top + 1]
        quads = c * (x0 * squares[:rows] - x0 ** 2 * totals[:rows])
        # every bucket's objective in one pass, then the minimum of each
        # (sum y, sum z) block of rows and columns
        objective = (x0 * (pmfs[:rows] @ kernel @ pmfs[:rows].T)
                     + quads[:, None] + quads[None, :])
        grid_mins = np.minimum.reduceat(np.minimum.reduceat(objective, bounds, axis=0),
                                        bounds, axis=1)
        eq_quads = c * (x0 * eq_squares[:top + 1] - x0 ** 2 * np.arange(top + 1) * grid_step)
        margins = grid_mins - (x0 * eq_dots[:top + 1, :top + 1]
                               + eq_quads[:, None] + eq_quads[None, :])
        sy, sz = divmod(int(np.argmin(margins)), top + 1)  # the first least, row by row
        reports.append(CheckReport(
            check="equal_split_minimality",
            parameters={"x0": x0, "m": m, "grid_step": grid_step, "c": c,
                        "tolerance": tolerance},
            min_value=float(margins[sy, sz]),
            argmin=(sy * grid_step, sz * grid_step),
            passed=bool(margins[sy, sz] >= -tolerance),
            details={"buckets": (top + 1) ** 2},
        ))
    return reports


# -- truncated Poisson series and the unweighted envelope --------------------

def _series_coefficients(t: int) -> np.ndarray:
    coeffs = np.empty(t + 1, dtype=np.float64)
    for k in range(t + 1):
        coeffs[k] = sum(
            1.0 / ((1 + max(j, k - j)) * math.factorial(j) * math.factorial(k - j))
            for j in range(k + 1))
    return coeffs


def poisson_truncated_series(x, t: int = SERIES_TRUNCATION):
    """P_t(x): the double-Poisson expansion of E[1/(1+max(Y,Z))] with
    Y, Z ~ Poisson(1-x), truncated at total count t.

    A degree-t polynomial in (1-x) scaled by exp(-2(1-x)); nondecreasing
    in t and a lower bound on the un-truncated expectation.
    """
    coeffs = _series_coefficients(t)
    lam = 1.0 - np.asarray(x, dtype=np.float64)
    # numpy.polynomial's polyval, step for step, without importing it
    poly = coeffs[-1] + lam * 0
    for coeff in coeffs[-2::-1]:
        poly = coeff + poly * lam
    val = np.exp(-2.0 * lam) * poly
    return float(val) if np.isscalar(x) else val


def envelope_ratio(x):
    """P_t(x) - x/3: the envelope x P_t(x) - x^2/3 of the per-edge expected
    mass under the quadratic-transfer scheme with c = 1/6, divided by x
    and continued to x = 0."""
    return poisson_truncated_series(x) - np.asarray(x) / 3.0


def check_unweighted_envelope(cfg: KernelConfig = KernelConfig(),
                              floor: float = UNWEIGHTED_BIPARTITE_CERTIFIED,
                              tolerance: float = 1e-9) -> CheckReport:
    """Grid-minimize the envelope ratio P_t(x) - x/3 over [0, 1].

    The minimum sits near x = 0.22 at ~0.46785: below the advertised
    0.476 (which is only the x = 0 endpoint value) but above 0.467.  The
    report carries both floors so the discrepancy stays visible.
    """
    xs = np.arange(0.0, 1.0 + cfg.grid_step / 2, cfg.grid_step)
    vals = envelope_ratio(xs)
    i = int(np.argmin(vals))
    min_value = float(vals[i])
    return CheckReport(
        check="unweighted_envelope",
        parameters={"grid_step": cfg.grid_step, "series_truncation": SERIES_TRUNCATION,
                    "floor": floor, "tolerance": tolerance},
        min_value=min_value,
        argmin=float(xs[i]),
        passed=bool(min_value >= floor - tolerance),
        details={
            "target_floor": UNWEIGHTED_BIPARTITE_TARGET,
            "target_floor_met": bool(min_value >= UNWEIGHTED_BIPARTITE_TARGET - tolerance),
            "endpoint_value": float(vals[0]),
            "margin": min_value - floor,
            "note": ("grid minimum lies below the advertised 0.476 floor; "
                     "0.476 is attained only at the x=0 endpoint"),
        },
    )


@dataclass(frozen=True)
class WeightedKernelConstant:
    closed_form: float
    series_value: float


def weighted_kernel_constant() -> WeightedKernelConstant:
    """The weighted-bipartite floor 1 - 3/(2e) two ways: closed form, and
    the Poisson series (e - 5/2)/e + 1/e cut after POISSON_TAIL_CUTOFF."""
    closed = 1.0 - 3.0 / (2.0 * math.e)
    tail = sum(1.0 / ((k + 1) * math.factorial(k)) for k in range(2, POISSON_TAIL_CUTOFF + 1))
    series = tail / math.e + 0.5 * (2.0 / math.e)
    return WeightedKernelConstant(closed_form=closed, series_value=series)


# -- the derivative inequality and the phi curve ------------------------------

def check_local_derivative_bound(g: SampledGraph, tolerance: float = 1e-9) -> CheckReport:
    """For a fixed realized graph G check
    sum_e x_e (nu(G + e) - nu(G - e)) + 2 nu(G) >= sum_e x_e w_e:
    the batch of one of `local_derivative_sides`, so a graph of more than
    SUPPORT_CUTOFF (20) potential edges is refused with SupportTooLarge."""
    inst = g.instance
    (lhs,), (rhs,) = local_derivative_sides(inst, g.realized, [0, inst.num_edges])
    return derivative_report(lhs, rhs, inst.num_edges, g.num_realized, tolerance)


def derivative_report(lhs: float, rhs: float, edges: int, realized: int,
                      tolerance: float) -> CheckReport:
    """The local derivative check's report on a graph of `edges` potential
    and `realized` realized edges whose sides are lhs and rhs."""
    return CheckReport(
        check="local_derivative_bound",
        parameters={"edges": edges, "realized": realized, "tolerance": tolerance},
        min_value=float(lhs - rhs),
        argmin=None,
        passed=bool(lhs >= rhs - tolerance),
        details={"lhs": float(lhs), "rhs": float(rhs)},
    )


def local_derivative_sides(inst: Instance, realized: np.ndarray,
                           cuts) -> tuple[np.ndarray, np.ndarray]:
    """Both sides of the local derivative inequality of
    `check_local_derivative_bound` for every realized graph of a disjoint
    union: graph k is the edges cuts[k]..cuts[k+1]-1 of `inst`, edge j
    realized where the bool realized[j] is set, and no two graphs share a
    vertex; a graph of more than SUPPORT_CUTOFF (20) edges is refused with
    SupportTooLarge.

    One of G + e and G - e is G itself, so a graph reads G and G with each
    edge of nonzero x toggled from a `_subset_values` sweep of its edges by
    descending lower endpoint, which sums a matching's weights as
    `max_weight_matching_general`'s vertex DP does, to the same bits.  The
    graphs are swept in batches, largest first, each within BLOCK_BYTES of
    table or one graph, a shorter graph padded to the batch's edge count
    with zero-weight top edges on vertex -1, whose entries are never read.
    lhs adds 2 nu(G) and x_e times the gain edge by edge, in edge order, by
    one sequential cumsum per graph (-0.0 for an edge of zero x, which adds
    nothing); rhs is np.dot of the graph's own w and x, one call per graph
    as `fractional_value` makes it, for BLAS's summation order.
    """
    cuts = np.asarray(cuts, dtype=np.int64)
    sizes = np.diff(cuts)
    start = np.repeat(cuts[:-1], sizes)  # each edge's graph's first edge
    order = np.lexsort((-np.minimum(*inst.endpoints.T), start))
    bit = np.empty(len(order), dtype=np.int64)
    bit[order] = 1 << (np.arange(len(order)) - start)  # each edge's bit in its graph's sweep
    g = np.concatenate(([0], np.cumsum(bit * realized)))
    masks = g[cuts[1:]] - g[cuts[:-1]]  # each graph's realized edges, as sweep bits
    lhs = np.empty(len(sizes))
    by_size = np.argsort(-sizes, kind="stable")
    lo = 0
    while lo < len(by_size):
        width = int(sizes[by_size[lo]])
        # those within one edge of the first, or all at tables of 2**10 entries
        # or fewer: verify's trials took 2.0 ms, and 3.0 with all at any size
        ks = by_size[lo:lo + max(1, BLOCK_BYTES // (8 << width))]
        ks = ks[(sizes[ks] + 1 >= width) | (width <= 10)]
        lo += len(ks)
        real = np.arange(width) < sizes[ks, None]
        edge = np.where(real, cuts[ks, None] + np.arange(width), 0)  # (graph, edge) in edge order
        nus = _subset_values(np.where(real[..., None], inst.endpoints[order[edge]], -1),
                             np.where(real, inst.w[order[edge]], 0.0))
        rows = np.arange(len(ks))[:, None]
        base = nus[rows, masks[ks, None]]
        other = nus[rows, masks[ks, None] ^ np.where(real, bit[edge], 0)]
        x = np.where(real, inst.x[edge], 0.0)
        gain = np.where(realized[edge], base - other, other - base)
        terms = np.concatenate((2.0 * base, np.where(x != 0.0, x * gain, -0.0)), axis=1)
        lhs[ks] = np.cumsum(terms, axis=1)[:, -1]
    rhs = np.array([np.dot(inst.w[a:b], inst.x[a:b]) for a, b in zip(cuts[:-1], cuts[1:])])
    return lhs, rhs


def phi_curve(inst: Instance, grid_points: int = 20, mode: str = "exact",
              samples: int = 1000, seed: int = 0) -> np.ndarray:
    """phi(t) = expected matching weight when every probability is scaled
    by t, on the grid t = 0, 1/k, ..., 1 with k = grid_points >= 1.

    Exact mode enumerates the support (cutoff applies), at each t by the
    product loop of `support_probabilities` on t * x, not a scaled instance;
    Monte Carlo mode averages `samples` draws per grid point, with sample
    indices offset by grid position so the whole curve is reproducible
    from one seed.
    """
    if grid_points < 1:
        raise ValueError("need at least one grid point")
    ts = np.linspace(0.0, 1.0, grid_points + 1)
    out = np.empty((grid_points + 1, 2), dtype=np.float64)
    out[:, 0] = ts
    if mode == "exact":
        nus = matching_values_over_subsets(inst)  # refuses a support past the cutoff
        for i, t in enumerate(ts):
            out[i, 1] = float(_subset_probabilities(float(t) * inst.x) @ nus)
    elif mode == "mc":
        if samples < 1:
            raise ValueError("need at least one sample")
        solve = value_solver(inst)
        for i, t in enumerate(ts):
            if t == 0.0:
                out[i, 1] = 0.0
                continue
            scaled = inst.scale_probabilities(float(t))
            out[i, 1] = float(sample_values(scaled, solve, seed, i * samples, samples).mean())
    else:
        raise ValueError(f"unknown phi mode {mode!r}")
    return out


def check_phi_differential(inst: Instance, grid_points: int = 100,
                           tolerance: float = 1e-9) -> CheckReport:
    """Audit d/dt (e^{2t} phi) >= e^{2t} sum_e w_e x_e via forward differences
    of the exact phi curve.

    The mean-value form makes the discrete check rigorous: the forward
    difference of e^{2t} phi over [t_i, t_{i+1}] equals the derivative
    somewhere inside, which is at least e^{2 t_i} sum w x.  The report's
    parameters name the exact mode with fixed Monte Carlo fields (samples
    1000, seed 0, slack 0), so verify's JSON keeps its keys.
    """
    curve = phi_curve(inst, grid_points)
    ts, phis = curve[:, 0], curve[:, 1]
    denom = fractional_value(inst)
    scaled = np.exp(2.0 * ts) * phis
    diffs = np.diff(scaled) / np.diff(ts)
    bounds = np.exp(2.0 * ts[:-1]) * denom
    margins = diffs - bounds
    i = int(np.argmin(margins))
    endpoint = math.e ** 2 * phis[-1] - (math.e ** 2 - 1.0) / 2.0 * denom
    passed = bool(margins[i] >= -tolerance and endpoint >= -tolerance)
    return CheckReport(
        check="phi_differential",
        parameters={"grid_points": grid_points, "mode": "exact", "samples": 1000,
                    "seed": 0, "tolerance": tolerance, "slack": 0.0},
        min_value=float(margins[i]),
        argmin=float(ts[i]),
        passed=passed,
        details={"endpoint_margin": float(endpoint),
                 "fractional_value": float(denom)},
    )
