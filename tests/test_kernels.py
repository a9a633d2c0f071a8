import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchgap import (GENERAL_GRAPH_FLOOR, KernelConfig, UNWEIGHTED_BIPARTITE_CERTIFIED,
                      UNWEIGHTED_BIPARTITE_TARGET, WEIGHTED_BIPARTITE_FLOOR,
                      binomial_max1_kernel, check_gain_ratios,
                      check_local_derivative_bound, check_phi_differential,
                      check_unweighted_envelope, envelope_ratio, gain_margins,
                      inv_max_expectation, phi_curve, poisson_binomial_pmf,
                      poisson_binomial_pmfs, poisson_truncated_series, sample,
                      verify_equal_split, verify_kernel_minimizer,
                      verify_uniform_minimizer, weighted_kernel_constant)
from matchgap import Instance, PotentialEdge, SampledGraph
from matchgap.gallery import gen_random_point
from matchgap.kernels import _gain_table, _mean1_grid, verify_equal_splits

from conftest import (bits, brute_inv_max_expectation, convolve_pmf, literal_derivative_sides,
                      literal_equal_split, loop_gain_margins, poisson_pair_expectation)


def gain_coefficients(probs, j_max):
    """g_1..g_{j_max} of one Bernoulli vector: a row of the batch table."""
    return _gain_table(poisson_binomial_pmf(probs)[None, :], j_max)[0]


class TestPoissonBinomial:
    def test_certain(self):
        assert poisson_binomial_pmf([1.0]).tolist() == [0.0, 1.0]

    def test_two_halves(self):
        assert poisson_binomial_pmf([0.5, 0.5]).tolist() == [0.25, 0.5, 0.25]

    def test_against_outcome_enumeration(self):
        probs = [0.2, 0.3, 0.5]
        pmf = poisson_binomial_pmf(probs)
        brute = np.zeros(4)
        for bits in itertools.product([0, 1], repeat=3):
            p = np.prod([q if b else 1 - q for q, b in zip(probs, bits)])
            brute[sum(bits)] += p
        assert pmf == pytest.approx(brute.tolist(), abs=1e-12)

    @given(st.lists(st.floats(0.0, 1.0), max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_sums_to_one(self, probs):
        assert poisson_binomial_pmf(probs).sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("length", range(65))
    def test_rows_equal_sequential_convolution_bitwise(self, length):
        rng = np.random.default_rng(length)
        probs = rng.random((6, length))
        probs[rng.random(probs.shape) < 0.2] = 0.0
        probs[rng.random(probs.shape) < 0.2] = 1.0
        batch = poisson_binomial_pmfs(probs)
        assert batch.shape == (6, length + 1)
        for row, pmf in zip(probs.tolist(), batch):
            ref = convolve_pmf(row)
            assert bits(pmf) == bits(ref)
            assert bits(poisson_binomial_pmf(row)) == bits(ref)

    @pytest.mark.parametrize("bad", [float("nan"), -0.1, 1.5])
    def test_invalid_probability_same_message_single_and_batched(self, bad):
        with pytest.raises(ValueError) as single:
            poisson_binomial_pmf([0.5, bad, 0.2])
        with pytest.raises(ValueError) as batched:
            poisson_binomial_pmfs([[0.1, 0.2, 0.3], [0.5, bad, 0.2]])
        assert str(single.value) == str(batched.value) == (
            f"Bernoulli probability {bad} outside [0,1]")


class TestInvMaxExpectation:
    def test_both_empty(self):
        assert inv_max_expectation([], []) == 1.0

    def test_one_certain(self):
        assert inv_max_expectation([1.0], []) == pytest.approx(0.5)

    def test_against_joint_enumeration(self):
        y, z = [0.5, 0.5], [0.5, 0.5]
        assert inv_max_expectation(y, z) == pytest.approx(
            brute_inv_max_expectation(y, z), abs=1e-12)

    def test_symmetry(self):
        y, z = [0.3, 0.8], [0.1, 0.5, 0.9]
        assert inv_max_expectation(y, z) == pytest.approx(
            inv_max_expectation(z, y), abs=1e-15)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           st.integers(0, 3), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_monotone_nonincreasing_in_probs(self, y, z, idx, bump):
        idx = idx % len(y)
        bumped = list(y)
        bumped[idx] = min(1.0, bumped[idx] + bump)
        assert (inv_max_expectation(bumped, z)
                <= inv_max_expectation(y, z) + 1e-12)


class TestGainCoefficients:
    def test_degenerate_zero(self):
        assert gain_coefficients([], 3) == pytest.approx([1 / 2, 2 / 3, 3 / 4])

    def test_j1_is_half_prob_zero(self):
        for probs in ([0.3], [0.2, 0.6], [0.9, 0.1, 0.4]):
            pmf0 = np.prod([1 - p for p in probs])
            assert gain_coefficients(probs, 1)[0] == pytest.approx(pmf0 / 2)

    def test_two_halves_value(self):
        # pmf [0.25, 0.5, 0.25]: g2 = 0.25*(2/3) + 0.5*(1/6) = 1/4
        assert gain_coefficients([0.5, 0.5], 2)[1] == pytest.approx(0.25)

    def test_increasing_and_bounded(self):
        g = gain_coefficients([0.25] * 4, 6)
        assert np.all(np.diff(g) > -1e-15)
        for j, val in enumerate(g, start=1):
            assert val <= 1 - 1 / (1 + j) + 1e-12

    def test_check_uniform_quarters(self):
        report = check_gain_ratios([0.25] * 4)
        assert report.passed

    def test_check_certain_single(self):
        report = check_gain_ratios([1.0, 0.0, 0.0])
        assert report.passed

    def test_requires_mean_one(self):
        with pytest.raises(ValueError, match="mean 1"):
            check_gain_ratios([0.4, 0.4])

    def test_mean_one_refused_per_row(self):
        with pytest.raises(ValueError, match="mean 1, got 0.8"):
            gain_margins([[0.5, 0.5], [0.4, 0.4], [0.3, 0.3]])

    @pytest.mark.parametrize("seed", range(32))
    def test_batched_margins_equal_per_vector_loop_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        for length in range(2, 9):
            u = rng.random((20, length))
            probs = u / u.sum(axis=1)[:, None]
            g, margins = gain_margins(probs)
            for row, g_row, m_row in zip(probs.tolist(), g, margins):
                ref_g, ref_m = loop_gain_margins(row)
                assert bits(g_row) == bits(ref_g)
                assert bits(m_row) == bits(ref_m)
                report = check_gain_ratios(row)
                assert bits(report.min_value) == bits(ref_m.min())
                assert report.argmin == 3 + int(np.argmin(ref_m))
                assert bits(report.details["g"]) == bits(ref_g)

    @pytest.mark.parametrize("seed", range(30))
    def test_random_mean_one_sweep(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 9))
        u = rng.random(m)
        p = (u / u.sum()).tolist()
        assert check_gain_ratios(p).passed


class TestKernelMinimizer:
    def test_m2_value_and_reference(self):
        report = verify_kernel_minimizer(2, 0.05)
        assert report.passed
        # Binomial(2, 1/2): E[1/(1+max(1,Y))] = (1/4+1/2)/2 + (1/4)/3 = 11/24
        assert report.details["reference"] == pytest.approx(11 / 24, abs=1e-12)
        assert report.min_value == pytest.approx(11 / 24, abs=1e-9)
        # the literal comparison without max(1, .) fails on the same grid
        assert report.details["literal_reference"] == pytest.approx(7 / 12, abs=1e-12)
        assert not report.details["literal_form_holds"]

    @pytest.mark.parametrize("m", [1, 2, 7, 40, 201])
    def test_references_from_one_binomial_pmf(self, m):
        # both references read one fold of Binomial(m, 1/m); each equals its
        # own fold bit for bit
        details = verify_kernel_minimizer(m, 1.0).details
        pmf = convolve_pmf([1.0 / m] * m)
        assert bits(details["reference"]) == bits(binomial_max1_kernel(m))
        assert bits(details["literal_reference"]) == bits(
            np.sum(pmf / (1.0 + np.arange(m + 1))))

    def test_m1_degenerate(self):
        report = verify_kernel_minimizer(1, 0.05)
        assert report.passed
        assert report.min_value == pytest.approx(0.5)
        assert report.argmin == ((1.0,), (1.0,))

    def test_m3_coarse(self):
        assert verify_kernel_minimizer(3, 0.1).passed

    def test_m5_grid_above_asymptotic_floor(self):
        report = verify_kernel_minimizer(5, 0.05)
        assert report.passed
        assert report.min_value >= WEIGHTED_BIPARTITE_FLOOR - 5e-3

    @pytest.mark.parametrize("m", [3, 4])
    def test_uniform_minimizer_larger_m(self, m):
        report = verify_uniform_minimizer(m, 0.05)
        assert report.passed
        # 1/m may be off the 0.05 grid; the argmin is its closest representable
        assert report.argmin == pytest.approx([1 / m] * m, abs=0.05)

    @pytest.mark.parametrize("sweep", [verify_kernel_minimizer, verify_uniform_minimizer])
    def test_grid_step_must_divide_one(self, sweep):
        # a 0.3 grid reaches vectors summing to 0.9, not mean-1 vectors
        with pytest.raises(ValueError, match="grid step must divide 1"):
            sweep(2, 0.3)

    @pytest.mark.parametrize("m", range(7))
    @pytest.mark.parametrize("grid_step", [1.0, 0.5, 0.25, 0.1, 0.05])
    def test_grid_equals_recursive_enumeration(self, m, grid_step):
        # the recursion the enumeration replaced, one call per part
        def partitions(prefix, remaining, slots, bound):
            if slots == 0:
                return [tuple(prefix)] if remaining == 0 else []
            low = -(-remaining // slots)
            return [p for v in range(min(bound, remaining), low - 1, -1)
                    for p in partitions(prefix + [v], remaining - v, slots - 1, v)]

        units = round(1 / grid_step)
        assert _mean1_grid(m, grid_step) == partitions([], units, m, units)

    def test_long_vectors_need_no_recursion(self):
        # one call per part overran the interpreter's recursion limit
        report = verify_kernel_minimizer(1200, 0.5)
        assert report.passed
        assert report.details["grid_points"] == 2

    def test_uniform_minimizer_m2_exact_gridpoint(self):
        report = verify_uniform_minimizer(2, 0.05)
        assert report.passed
        assert report.argmin == (0.5, 0.5)
        assert report.min_value == pytest.approx(11 / 24, abs=1e-12)


class TestEqualSplit:
    def test_m1_trivial(self):
        assert verify_equal_split(0.5, 1, 0.05).passed

    def test_m2_standard(self):
        assert verify_equal_split(0.5, 2, 0.05).passed

    def test_small_c_breaks_minimality(self):
        # with no quadratic penalty, concentration beats the equal split
        assert not verify_equal_split(0.3, 2, 0.05, c=0.0).passed

    def test_x0_validation(self):
        with pytest.raises(ValueError):
            verify_equal_split(0.0, 2)
        for x0s in ([0.5, 0.0], []):
            with pytest.raises(ValueError):
                verify_equal_splits(x0s, 2)

    @pytest.mark.parametrize("grid_step", [0.05, 0.1, 0.025])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_equals_bucket_loop(self, grid_step, m):
        # each x0 alone and all ten x0 in one batch, as verify runs them
        x0s = [k / 10.0 for k in range(1, 11)]
        for x0, batched in zip(x0s, verify_equal_splits(x0s, m, grid_step), strict=True):
            report = verify_equal_split(x0, m, grid_step)
            margin, bucket = literal_equal_split(x0, m, grid_step, report.parameters["c"])
            assert bits(report.min_value) == bits(margin)
            assert report.argmin == bucket
            assert batched.to_dict() == report.to_dict()
            assert bits(batched.min_value) == bits(margin)


class TestTruncatedSeries:
    def test_x_one_only_constant_term(self):
        for t in (0, 3, 15):
            assert poisson_truncated_series(1.0, t) == pytest.approx(1.0)

    def test_t0_at_zero(self):
        assert poisson_truncated_series(0.0, 0) == pytest.approx(math.exp(-2), abs=1e-15)

    def test_monotone_in_t_and_below_exact(self):
        for x in (0.0, 0.25, 0.5, 0.75):
            vals = [poisson_truncated_series(x, t) for t in range(0, 20)]
            assert np.all(np.diff(vals) >= -1e-15)
            exact = poisson_pair_expectation(1 - x, cutoff=60)
            assert vals[-1] <= exact + 1e-12

    def test_t15_close_to_exact_at_half(self):
        approx = poisson_truncated_series(0.5, 15)
        exact = poisson_pair_expectation(0.5, cutoff=60)
        assert abs(approx - exact) < 1e-6


class TestEnvelope:
    def test_endpoints(self):
        # the envelope x P_t(x) - x^2/3 is 2/3 at x = 1; its ratio at x = 0 is P_t(0)
        assert envelope_ratio(1.0) == pytest.approx(2 / 3)
        assert envelope_ratio(0.0) == poisson_truncated_series(0.0)

    def test_grid_minimum_location_and_floors(self):
        report = check_unweighted_envelope(KernelConfig())
        assert report.passed  # against the certified 0.467 floor
        assert report.min_value == pytest.approx(0.46785, abs=5e-4)
        assert report.argmin == pytest.approx(0.219, abs=5e-3)
        # the advertised 0.476 holds only at the x=0 endpoint
        assert not report.details["target_floor_met"]
        assert report.details["endpoint_value"] >= UNWEIGHTED_BIPARTITE_TARGET

    def test_ratio_consistent_with_envelope(self):
        for x in (0.1, 0.5, 0.9):
            envelope = x * poisson_truncated_series(x) - x ** 2 / 3.0
            assert envelope_ratio(x) == pytest.approx(envelope / x, abs=1e-12)


class TestConstants:
    def test_weighted_kernel_closed_vs_series(self):
        const = weighted_kernel_constant()
        assert const.closed_form == pytest.approx(1 - 3 / (2 * math.e), abs=0)
        assert abs(const.closed_form - const.series_value) < 1e-12
        assert const.closed_form >= 0.4481

    def test_binomial_kernel_decreases_to_constant(self):
        vals = [binomial_max1_kernel(m) for m in (1, 2, 5, 20, 50)]
        assert np.all(np.diff(vals) < 0)
        assert abs(vals[-1] - WEIGHTED_BIPARTITE_FLOOR) < 5e-3

    def test_general_constant(self):
        c = GENERAL_GRAPH_FLOOR
        assert c == pytest.approx((math.e ** 2 - 1) / (2 * math.e ** 2), abs=0)
        assert c >= 0.4323

    def test_general_constant_equals_integral(self):
        scipy_integrate = pytest.importorskip("scipy.integrate")
        val, _ = scipy_integrate.quad(lambda t: math.exp(2 * t), 0, 1)
        assert GENERAL_GRAPH_FLOOR == pytest.approx(val / math.e ** 2, abs=1e-10)

    def test_floor_ordering(self):
        assert (GENERAL_GRAPH_FLOOR < WEIGHTED_BIPARTITE_FLOOR
                < UNWEIGHTED_BIPARTITE_CERTIFIED < UNWEIGHTED_BIPARTITE_TARGET)


class TestDerivativeBound:
    def test_empty_graph_single_certain_edge(self):
        inst = Instance("general", 2, (PotentialEdge(0, 1, 1.0, 1.0),))
        g = SampledGraph(inst, np.array([False]))
        report = check_local_derivative_bound(g)
        assert report.passed
        assert report.details["lhs"] == pytest.approx(1.0)

    def test_single_realized_edge(self):
        inst = Instance("general", 2, (PotentialEdge(0, 1, 1.0, 1.0),))
        g = SampledGraph(inst, np.array([True]))
        report = check_local_derivative_bound(g)
        assert report.details["lhs"] == pytest.approx(3.0)
        assert report.passed

    @pytest.mark.parametrize("seed", range(40))
    def test_random_sweep(self, seed):
        inst = gen_random_point(2 + seed % 5, 0.6, 60_000 + seed, "general")
        g = sample(inst, 3, seed)
        report = check_local_derivative_bound(g)
        assert report.passed
        lhs, rhs = literal_derivative_sides(g)
        assert bits([report.details["lhs"], report.details["rhs"]]) == bits([lhs, rhs])
        assert bits(report.min_value) == bits(lhs - rhs)


class TestPhi:
    def test_zero_at_origin(self):
        inst = gen_random_point(3, 0.7, 5, "general")
        curve = phi_curve(inst, 4)
        assert curve[0].tolist() == [0.0, 0.0]

    def test_single_certain_edge_is_linear(self):
        inst = Instance("general", 2, (PotentialEdge(0, 1, 1.0, 1.0),))
        curve = phi_curve(inst, 5)
        assert curve[:, 1] == pytest.approx(curve[:, 0])

    def test_differential_inequality_exact(self):
        for seed in (1, 2, 3):
            inst = gen_random_point(4, 0.6, 80_000 + seed, "general")
            if inst.num_edges == 0:
                continue
            report = check_phi_differential(inst, grid_points=60)
            assert report.passed

    def test_endpoint_bound(self):
        inst = gen_random_point(4, 0.6, 123, "general")
        report = check_phi_differential(inst, grid_points=30)
        assert report.details["endpoint_margin"] >= -1e-9

    def test_mc_matches_exact_curve(self):
        inst = gen_random_point(3, 0.8, 9, "bipartite", weighted=False)
        if inst.num_edges == 0:
            return
        exact = phi_curve(inst, 4, mode="exact")
        mc = phi_curve(inst, 4, mode="mc", samples=4000, seed=3)
        assert mc[:, 1] == pytest.approx(exact[:, 1], abs=0.08)

    @pytest.mark.parametrize("samples", [0, -3])
    def test_mc_refuses_no_samples(self, samples):
        inst = gen_random_point(3, 0.8, 9, "bipartite")
        with pytest.raises(ValueError, match="need at least one sample"):
            phi_curve(inst, 4, mode="mc", samples=samples)

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    @pytest.mark.parametrize("grid_points", [0, -1, -2])
    def test_refuses_no_grid_points(self, mode, grid_points):
        inst = gen_random_point(3, 0.8, 9, "bipartite")
        with pytest.raises(ValueError, match="need at least one grid point"):
            phi_curve(inst, grid_points, mode=mode)
