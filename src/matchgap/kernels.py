"""Analytic kernels: the expectations, coefficients, and inequalities that
certify the correlation-gap floors.

Everything here is numerical certification on grids, not symbolic proof.
The central quantity is E[1/(1 + max(Y, Z))] for independent sums of
Bernoulli variables Y, Z -- the conditional expectation of one over the
larger endpoint degree of a realized edge.  Supporting pieces: exact
Poisson-binomial pmfs, the cumulative gain coefficients, the truncated
double-Poisson series P_t, the unweighted envelope, and the phi(t) curve
of expected matching weight under uniformly scaled probabilities.

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
from typing import Optional, Sequence

import numpy as np

from .matching import matching_values_over_subsets, max_weight_matching_general, value_solver
from .model import Instance, fractional_value
from .sampling import SampledGraph, sample_values, support_probabilities

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
        if self.grid_step <= 0:
            raise ValueError("kernel configuration values must be positive")


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
    """Row r, column j - 1: g_j of the sum whose pmf is pmfs[r]."""
    if j_max < 1:
        raise ValueError("j_max must be at least 1")
    out = np.empty((len(pmfs), j_max), dtype=np.float64)
    for j in range(1, j_max + 1):
        k = min(j, pmfs.shape[1])
        # np.sum adds each row pairwise, as it adds one vector, only while the
        # term matrix is C-contiguous; a fancy-indexed pmfs[:, arange(k)] is not
        terms = pmfs[:, :k] * (1.0 / (1.0 + np.arange(k)) - 1.0 / (1.0 + j))
        out[:, j - 1] = np.sum(terms, axis=1)
    return out


def gain_coefficients(probs: Sequence[float], j_max: int) -> np.ndarray:
    """Cumulative inverse-moment gaps g_j = sum_{i<j} Pr[Y=i] (1/(1+i) - 1/(1+j)).

    Returned for j = 1..j_max (index 0 holds g_1).
    """
    return _gain_table(poisson_binomial_pmf(probs)[None, :], j_max)[0]


def gain_margins(probs, j_max: Optional[int] = None) -> tuple[np.ndarray, np.ndarray]:
    """Gain coefficients and margins g_2 / 2 - g_j / j (j = 3..j_max) of
    every row of a (rows, L) array of Bernoulli vectors, each of mean 1.

    j_max defaults to max(L, 3).  Returns g, (rows, j_max), and the
    margins, (rows, j_max - 2); a row whose probabilities, summed left to
    right, miss 1 by more than 1e-9 is refused.
    """
    probs = np.asarray(probs, dtype=np.float64)
    totals = np.zeros(len(probs))
    for col in probs.T:
        totals = totals + col
    off = np.abs(totals - 1.0) > 1e-9
    if off.any():
        raise ValueError(f"gain check requires mean 1, got {float(totals[off][0])}")
    g = _gain_table(poisson_binomial_pmfs(probs),
                    max(probs.shape[1], 3) if j_max is None else j_max)
    return g, g[:, 1:2] / 2.0 - g[:, 2:] / np.arange(3, g.shape[1] + 1)


def check_gain_ratios(probs: Sequence[float], j_max: Optional[int] = None,
                      tolerance: float = 1e-9) -> CheckReport:
    """For a mean-1 Bernoulli sum, verify g_2 / 2 >= g_j / j for j >= 3."""
    probs = np.array(probs, dtype=np.float64, ndmin=2)
    g, margins = gain_margins(probs, j_max)
    g, margins = g[0], margins[0]
    arg = int(np.argmin(margins)) if margins.size else None
    min_margin = math.inf if arg is None else float(margins[arg])
    return CheckReport(
        check="gain_ratios",
        parameters={"m": probs.shape[1], "j_max": len(g), "tolerance": tolerance},
        min_value=min_margin,
        argmin=None if arg is None else arg + 3,
        passed=bool(min_margin >= -tolerance),
        details={"g": g.tolist()},
    )


# -- grid sweeps over Bernoulli vectors --------------------------------------

def _unit_partitions(total: int, parts: int, cap: int):
    """Nonincreasing tuples of `parts` integers in [0, cap] summing to total."""
    out = []

    def rec(prefix, remaining, slots, bound):
        if slots == 0:
            if remaining == 0:
                out.append(tuple(prefix))
            return
        low = -(-remaining // slots)  # ceil: keep nonincreasing order feasible
        for v in range(min(bound, remaining), low - 1, -1):
            rec(prefix + [v], remaining - v, slots - 1, v)

    rec([], total, parts, cap)
    return out


def _mean1_grid(m: int, grid_step: float):
    """Nonincreasing length-m vectors of grid units that sum to 1, refusing
    a step that does not divide 1 (its vectors would not have mean 1)."""
    units = round(1.0 / grid_step)
    if abs(units * grid_step - 1.0) > 1e-12:
        raise ValueError("grid step must divide 1")
    return _unit_partitions(units, m, units)


def binomial_max1_kernel(m: int) -> float:
    """E[1/(1 + max(1, Y))] for Y ~ Binomial(m, 1/m), exactly."""
    pmf = poisson_binomial_pmf([1.0 / m] * m)
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

    reference = binomial_max1_kernel(m)
    pmf_u = poisson_binomial_pmf([1.0 / m] * m)
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


def pair_objective(x0: float, y: Sequence[float], z: Sequence[float], c: float) -> float:
    """x0 E[1/(1+max(Y,Z))] + c sum_i (x0 y_i^2 - x0^2 y_i) + same in z."""
    y = np.asarray(y, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64)
    e = inv_max_expectation(list(y), list(z))
    quad = c * (x0 * np.sum(y ** 2) - x0 ** 2 * np.sum(y)
                + x0 * np.sum(z ** 2) - x0 ** 2 * np.sum(z))
    return float(x0 * e + quad)


def verify_equal_split(x0: float, m: int, grid_step: float = 0.05,
                       c: float = 1.0 / 6.0, tolerance: float = 1e-9) -> CheckReport:
    """Sweep the pair objective on a grid with sum(y), sum(z) <= 1 - x0 and
    confirm the equal-split point attains the minimum inside every
    (sum y, sum z) bucket."""
    if not (0.0 < x0 <= 1.0):
        raise ValueError("x0 must lie in (0, 1]")
    max_units = int(math.floor((1.0 - x0) / grid_step + 1e-9))
    all_vecs = []
    offsets = []  # per sum s, the rows of all_vecs whose units sum to s
    for s in range(max_units + 1):
        vecs = _unit_partitions(s, m, s)
        offsets.append((len(all_vecs), len(all_vecs) + len(vecs)))
        all_vecs += vecs
    pmfs = poisson_binomial_pmfs(np.array(all_vecs) * grid_step)
    kernel = _inv_max_kernel(m + 1)
    table = pmfs @ kernel @ pmfs.T
    quads = np.array([
        c * (x0 * sum((u * grid_step) ** 2 for u in vec)
             - x0 ** 2 * sum(u * grid_step for u in vec))
        for vec in all_vecs
    ])

    # per sum s, the equal-split point's pmf and quadratic term
    eq_pmfs, eq_quads = [], []
    for s in range(max_units + 1):
        eq = [s * grid_step / m] * m
        eq_pmfs.append(poisson_binomial_pmf(eq))
        eq_quads.append(c * (x0 * sum(v ** 2 for v in eq) - x0 ** 2 * s * grid_step))

    worst_margin = math.inf
    worst_bucket = None
    for sy in range(max_units + 1):
        ya, yb = offsets[sy]
        for sz in range(max_units + 1):
            za, zb = offsets[sz]
            bucket = x0 * table[ya:yb, za:zb] + quads[ya:yb, None] + quads[None, za:zb]
            grid_min = float(bucket.min())
            # both pmfs have m + 1 entries: inv_max_expectation_pmf's product, unpadded
            f_eq = (x0 * float(eq_pmfs[sy] @ kernel @ eq_pmfs[sz])
                    + eq_quads[sy] + eq_quads[sz])
            margin = grid_min - f_eq
            if margin < worst_margin:
                worst_margin = margin
                worst_bucket = (sy * grid_step, sz * grid_step)
    return CheckReport(
        check="equal_split_minimality",
        parameters={"x0": x0, "m": m, "grid_step": grid_step, "c": c,
                    "tolerance": tolerance},
        min_value=float(worst_margin),
        argmin=worst_bucket,
        passed=bool(worst_margin >= -tolerance),
        details={"buckets": (max_units + 1) ** 2},
    )


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
    val = np.exp(-2.0 * lam) * np.polynomial.polynomial.polyval(lam, coeffs)
    return float(val) if np.isscalar(x) else val


def poisson_pair_expectation(lam: float, cutoff: int = POISSON_TAIL_CUTOFF) -> float:
    """E[1/(1+max(Y,Z))] for Y, Z ~ Poisson(lam) with an explicit tail cutoff."""
    k = np.arange(cutoff + 1)
    if lam > 0:
        log_p = -lam + k * math.log(lam) - np.array([math.lgamma(i + 1) for i in k])
        p = np.exp(log_p)
    else:
        p = np.where(k == 0, 1.0, 0.0)
    return inv_max_expectation_pmf(p, p)


def unweighted_envelope(x: float) -> float:
    """x * P_t(x) - x^2 / 3: the envelope of the per-edge expected mass
    under the quadratic-transfer scheme with c = 1/6."""
    return float(x * poisson_truncated_series(x) - x ** 2 / 3.0)


def envelope_ratio(x):
    """P_t(x) - x/3: the envelope divided by x, continued to x = 0."""
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


def weighted_kernel_constant(
        poisson_tail_cutoff: int = POISSON_TAIL_CUTOFF) -> WeightedKernelConstant:
    """The weighted-bipartite floor 1 - 3/(2e) two ways: closed form, and
    the Poisson series (e - 5/2)/e + 1/e evaluated with a tail cutoff."""
    closed = 1.0 - 3.0 / (2.0 * math.e)
    tail = sum(1.0 / ((k + 1) * math.factorial(k)) for k in range(2, poisson_tail_cutoff + 1))
    series = tail / math.e + 0.5 * (2.0 / math.e)
    return WeightedKernelConstant(closed_form=closed, series_value=series)


def general_bound_constant() -> float:
    """(e^2 - 1) / (2 e^2), the weighted general-graph floor."""
    return GENERAL_GRAPH_FLOOR


# -- the derivative inequality and the phi curve ------------------------------

def check_local_derivative_bound(g: SampledGraph, tolerance: float = 1e-9) -> CheckReport:
    """For a fixed realized graph G check
    sum_e x_e (nu(G + e) - nu(G - e)) + 2 nu(G) >= sum_e x_e w_e."""
    inst = g.instance
    base = max_weight_matching_general(g)
    lhs = 2.0 * base
    for j, xj in enumerate(inst.x.tolist()):
        if xj == 0.0:
            continue
        with_e = np.array(g.realized)
        with_e[j] = True
        without_e = np.array(g.realized)
        without_e[j] = False
        gain = (max_weight_matching_general(SampledGraph(inst, with_e))
                - max_weight_matching_general(SampledGraph(inst, without_e)))
        lhs += xj * gain
    rhs = fractional_value(inst)
    return CheckReport(
        check="local_derivative_bound",
        parameters={"edges": inst.num_edges, "realized": g.num_realized,
                    "tolerance": tolerance},
        min_value=float(lhs - rhs),
        argmin=None,
        passed=bool(lhs >= rhs - tolerance),
        details={"lhs": float(lhs), "rhs": float(rhs)},
    )


def phi_curve(inst: Instance, grid_points: int = 20, mode: str = "exact",
              samples: int = 1000, seed: int = 0) -> np.ndarray:
    """phi(t) = expected matching weight when every probability is scaled
    by t, on the grid t = 0, 1/k, ..., 1 with k = grid_points >= 1.

    Exact mode enumerates the support (cutoff applies); Monte Carlo mode
    averages `samples` draws per grid point, with sample indices offset by
    grid position so the whole curve is reproducible from one seed.
    """
    if grid_points < 1:
        raise ValueError("need at least one grid point")
    ts = np.linspace(0.0, 1.0, grid_points + 1)
    out = np.empty((grid_points + 1, 2), dtype=np.float64)
    out[:, 0] = ts
    if mode == "exact":
        nus = matching_values_over_subsets(inst)
        for i, t in enumerate(ts):
            probs = support_probabilities(inst.scale_probabilities(float(t)))
            out[i, 1] = float(probs @ nus)
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
                           mode: str = "exact", samples: int = 1000, seed: int = 0,
                           tolerance: float = 1e-9, slack: float = 0.0) -> CheckReport:
    """Audit d/dt (e^{2t} phi) >= e^{2t} sum_e w_e x_e via forward differences.

    The mean-value form makes the discrete check rigorous in exact mode:
    the forward difference of e^{2t} phi over [t_i, t_{i+1}] equals the
    derivative somewhere inside, which is at least e^{2 t_i} sum w x.
    `slack` absorbs Monte Carlo noise when mode="mc".
    """
    curve = phi_curve(inst, grid_points, mode=mode, samples=samples, seed=seed)
    ts, phis = curve[:, 0], curve[:, 1]
    denom = fractional_value(inst)
    scaled = np.exp(2.0 * ts) * phis
    diffs = np.diff(scaled) / np.diff(ts)
    bounds = np.exp(2.0 * ts[:-1]) * denom
    margins = diffs - bounds
    i = int(np.argmin(margins))
    endpoint = math.e ** 2 * phis[-1] - (math.e ** 2 - 1.0) / 2.0 * denom
    passed = bool(margins[i] >= -tolerance - slack and endpoint >= -tolerance - slack)
    return CheckReport(
        check="phi_differential",
        parameters={"grid_points": grid_points, "mode": mode, "samples": samples,
                    "seed": seed, "tolerance": tolerance, "slack": slack},
        min_value=float(margins[i]),
        argmin=float(ts[i]),
        passed=passed,
        details={"endpoint_margin": float(endpoint),
                 "fractional_value": float(denom)},
    )
