import itertools
import json
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchgap import (GENERAL_GRAPH_FLOOR, CheckReport, KernelConfig,
                      UNWEIGHTED_BIPARTITE_CERTIFIED, UNWEIGHTED_BIPARTITE_TARGET,
                      WEIGHTED_BIPARTITE_FLOOR, WeightedKernelConstant,
                      binomial_max1_kernel, check_gain_ratios,
                      check_local_derivative_bound, check_phi_differential,
                      check_unweighted_envelope, envelope_ratio, gain_margins,
                      inv_max_expectation, phi_curve, poisson_binomial_pmf,
                      poisson_binomial_pmfs, poisson_truncated_series, sample,
                      verify_equal_split, verify_kernel_minimizer,
                      verify_uniform_minimizer, weighted_kernel_constant)
from matchgap import Instance, PotentialEdge, SampledGraph, kernels
from matchgap.gallery import gen_random_point
from matchgap.cli import _derivative_trials
from matchgap.kernels import (_gain_table, _mean1_grid, local_derivative_sides,
                              verify_equal_splits)
from matchgap.matching import matching_values_over_subsets
from matchgap.sampling import SUPPORT_CUTOFF, SupportTooLarge, support_probabilities

from conftest import (bits, brute_inv_max_expectation, check_record, convolve_pmf,
                      literal_derivative_sides, literal_equal_split, loop_gain_margins,
                      poisson_pair_expectation, reference_derivative_sides)


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


class TestGridBound:
    """The grid sweeps refuse grids past GRID_VECTOR_CUTOFF vectors before
    building any, counting them without enumerating."""

    CUTOFF = kernels.GRID_VECTOR_CUTOFF

    @pytest.mark.parametrize("m", range(8))
    def test_counts_equal_the_enumeration(self, m):
        for units in range(45):
            sums = [len(kernels._unit_partitions(s, m, s)) for s in range(units + 1)]
            for got, want in ((kernels._grid_vectors(m, units), sums[-1]),
                              (kernels._grid_vectors(m, units, cumulative=True), sum(sums))):
                assert got == want if want <= self.CUTOFF else got > self.CUTOFF

    def test_counts_at_fine_grids_stay_cheap(self):
        # 8,037 mean-1 vectors at m = 4, step 0.01; far finer grids are
        # refused from a lower bound, without a table of their sums
        assert kernels._grid_vectors(4, 100) == 8037
        assert kernels._grid_vectors(2, 10 ** 12) > self.CUTOFF
        assert kernels._grid_vectors(2, 10 ** 12, cumulative=True) > self.CUTOFF
        assert kernels._grid_vectors(1, 10 ** 12) == 1

    def test_defaults_and_tested_grids_pass(self):
        for m, step in ((4, 0.05), (5, 0.05), (1200, 0.5), (6, 0.05), (3, 0.1)):
            assert kernels.minimizer_grid_ok(m, step)
        for m, step in ((2, 0.05), (2, 0.025), (3, 0.025), (3, 0.05)):
            assert kernels.equal_split_grid_ok(m, step, 0.1)

    @pytest.mark.parametrize("sweep", [verify_kernel_minimizer, verify_uniform_minimizer])
    def test_fine_minimizer_grids_refused(self, sweep):
        with pytest.raises(ValueError, match="too fine"):
            sweep(4, 0.01)  # a 517 MB table
        with pytest.raises(ValueError, match="too fine"):
            sweep(self.CUTOFF, 0.5)  # a kernel of CUTOFF + 1 squared entries
        assert sweep(4, 0.02).passed

    def test_fine_equal_split_grids_refused(self):
        with pytest.raises(ValueError, match="too fine"):
            verify_equal_splits([0.5, 0.1], 2, 0.01)
        assert len(verify_equal_splits([0.5, 0.2], 2, 0.01)) == 2


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

    @pytest.mark.parametrize("step", [0.0, -1e-3, math.nan, math.inf, 1e-300, 1e-9, 1.5e-5])
    def test_config_refuses_a_step_without_a_bounded_grid(self, step):
        # 1e-300 stopped on numpy's "Maximum allowed size exceeded", and a
        # step of 1e-9 would allocate a grid of 10^9 points
        with pytest.raises(ValueError, match=r"grid step must give 1 to 65536 points in \[0, 1\]"):
            KernelConfig(grid_step=step)

    def test_config_step_bound_is_the_grid_point_count(self):
        # accepted exactly when check_unweighted_envelope's grid has at most
        # sampling.BLOCK_BYTES // 8 points, on both sides of the finest step
        finest = 1.0 / 65535.5
        steps = [finest * (1.0 + k * 2.0 ** -50) for k in range(-8, 9)]
        for step in steps + [2e-5, 1e-3, 0.3, 1.0, 5.0]:
            points = len(np.arange(0.0, 1.0 + step / 2, step))
            try:
                KernelConfig(grid_step=step)
            except ValueError:
                assert points > 65536
            else:
                assert points <= 65536
        assert {len(np.arange(0.0, 1.0 + s / 2, s)) for s in steps} == {65536, 65537}

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


def derivative_graph(case):
    """test_random_sweep's realized graph: a sample of a random point for
    an integer case, else the first edges of a complete graph, shuffled and
    each pair in random order, with about 60% of them realized; "ties" has
    zero, signed-zero and repeated weights and some x = 0, "21-edges" is
    one edge past the support cutoff."""
    if isinstance(case, int):
        return sample(gen_random_point(2 + case % 5, 0.6, 60_000 + case, "general"), 3, case)
    if case == "bipartite":
        return sample(gen_random_point(4, 0.8, 61_000, "bipartite"), 3, 0)
    n, m = {"reversed": (6, 15), "ties": (5, 10), "empty": (3, 0),
            "20-edges": (7, 20), "21-edges": (7, 21)}[case]
    rng = np.random.default_rng(61_000 + m)
    pairs = np.array(list(itertools.combinations(range(n), 2))[:m]).reshape(-1, 2)
    ends = rng.permuted(pairs, axis=1)[rng.permutation(m)]
    w = rng.random(m) if case == "reversed" else rng.choice([0.0, -0.0, 0.25, 0.5], m)
    x = np.where(np.arange(m) % 3 == 1, 0.0, 1.0 / n) if case == "ties" else np.full(m, 1.0 / n)
    return SampledGraph(Instance.from_arrays("general", n, ends, x, w), rng.random(m) < 0.6)


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

    @pytest.mark.parametrize("case", [*range(40), "reversed", "bipartite", "ties", "empty",
                                      "20-edges", "21-edges"])
    def test_random_sweep(self, case):
        g = derivative_graph(case)
        if g.instance.num_edges > SUPPORT_CUTOFF:
            with pytest.raises(SupportTooLarge, match=r"2\*\*21 subsets"):
                check_local_derivative_bound(g)
            return
        report = check_local_derivative_bound(g)
        assert report.passed
        lhs, rhs = literal_derivative_sides(g)
        assert bits([report.details["lhs"], report.details["rhs"]]) == bits([lhs, rhs])
        assert bits(report.min_value) == bits(lhs - rhs)


def derivative_union(sizes, seed):
    """A disjoint union of general graphs with `sizes` edges: graph k is the
    first sizes[k] pairs of a complete graph on its own vertices (twenty
    disjoint pairs for 20 or more edges), shuffled and each pair in random
    order, weights from a palette with 0.0, -0.0 and ties, every third x
    zero, about 60% realized.  Returns the union, its cuts and the mask."""
    rng = np.random.default_rng(seed)
    ends, nv = [], 0
    for m in sizes:
        k = next(k for k in range(2, 8) if k * (k - 1) // 2 >= m) if m < 20 else 2 * m
        pairs = (list(itertools.combinations(range(k), 2))[:m] if m < 20
                 else [(2 * i, 2 * i + 1) for i in range(m)])
        own = rng.permuted(np.array(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
        ends.append(own[rng.permutation(m)] + nv)
        nv += k
    ends = np.concatenate([np.empty((0, 2), dtype=np.int64)] + ends)
    m = len(ends)
    w = rng.choice([0.0, -0.0, 0.25, 0.5, 1.0 / 3.0, float(rng.random())], m)
    x = np.where(np.arange(m) % 3 == 2, 0.0, rng.uniform(0.05, 0.3, m))
    union = Instance.from_arrays("general", nv, ends, x, w)
    return union, np.concatenate(([0], np.cumsum(sizes))), rng.random(m) < 0.6


class TestDerivativeSides:
    """The batched sweep against the per-graph loop, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 64 - 1])
    @pytest.mark.parametrize("trials", [1, 2, 5, 7, 100, 1000])
    def test_verify_trials_equal_the_reference(self, seed, trials):
        for n in range(2, 2 + min(trials, 5)):
            union, cuts, realized = _derivative_trials(n, np.arange(n - 2, trials, 5), seed)
            got = local_derivative_sides(union, realized, cuts)
            assert bits(got) == bits(reference_derivative_sides(union, realized, cuts))

    @pytest.mark.parametrize("block", [None, 64, 4096])
    @pytest.mark.parametrize("seed", range(4))
    def test_mixed_union_equals_the_reference(self, monkeypatch, block, seed):
        # edge counts 0 to 12 in random order, some repeated; a small
        # BLOCK_BYTES cuts the batches down to one graph or a few
        if block:
            monkeypatch.setattr("matchgap.kernels.BLOCK_BYTES", block)
        sizes = np.random.default_rng(seed).permutation([*range(13), 0, 3, 3, 12, 7])
        union, cuts, realized = derivative_union(sizes, 70_000 + seed)
        got = local_derivative_sides(union, realized, cuts)
        assert bits(got) == bits(reference_derivative_sides(union, realized, cuts))

    @pytest.mark.parametrize("sizes", [[20], [2, 20, 0, 5]])
    def test_twenty_edge_matching_runs(self, sizes):
        # twenty disjoint edges on 40 vertices: a table of 2**20 entries
        union, cuts, realized = derivative_union(sizes, 71_000)
        got = local_derivative_sides(union, realized, cuts)
        assert bits(got) == bits(reference_derivative_sides(union, realized, cuts))

    @pytest.mark.parametrize("sizes", [[21], [3, 21, 1]])
    def test_twenty_one_edges_refused(self, sizes):
        union, cuts, realized = derivative_union(sizes, 72_000)
        with pytest.raises(SupportTooLarge, match=r"2\*\*21 subsets"):
            local_derivative_sides(union, realized, cuts)

    def test_no_graphs(self):
        lhs, rhs = local_derivative_sides(derivative_union([], 0)[0], np.zeros(0, bool), [0])
        assert lhs.shape == rhs.shape == (0,)


def phi_instances():
    """Bipartite and general instances of 0 to 10 edges for the phi oracle."""
    insts = [gen_random_point(n, d, 90_000 + n, kind) for kind in ("bipartite", "general")
             for n, d in ((2, 1.0), (3, 0.7), (4, 0.6), (5, 0.5))]
    return insts + [Instance("general", 2, (PotentialEdge(0, 1, 1.0, 1.0),)),
                    Instance("bipartite", 1, ())]


class TestPhi:
    @pytest.mark.parametrize("grid_points", [1, 20, 100])
    def test_exact_curve_is_the_scaled_instance_formula(self, grid_points):
        for inst in phi_instances():
            curve = phi_curve(inst, grid_points)
            assert curve[0, 0] == 0.0 and curve[-1, 0] == 1.0
            nus = matching_values_over_subsets(inst)
            want = [support_probabilities(inst.scale_probabilities(float(t))) @ nus
                    for t in curve[:, 0]]
            assert bits(curve[:, 1]) == bits(want)

    def test_exact_refuses_past_the_support_cutoff(self):
        ends = np.arange(2 * (SUPPORT_CUTOFF + 1)).reshape(-1, 2)
        inst = Instance.from_arrays("general", len(ends) * 2, ends, np.full(len(ends), 0.5),
                                    np.ones(len(ends)))
        with pytest.raises(SupportTooLarge, match=r"2\*\*21 subsets"):
            phi_curve(inst, 4)
        with pytest.raises(SupportTooLarge, match=r"2\*\*21 subsets"):
            check_phi_differential(inst, 4)

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


class TestRecords:
    @pytest.mark.parametrize("make, text, by_value, frozen, invalid", [
        pytest.param(lambda: KernelConfig(0.05), "KernelConfig(grid_step=0.05)", True,
                     FrozenInstanceError, (lambda: KernelConfig(0.0), "grid step must give"),
                     id="KernelConfig"),
        pytest.param(lambda: CheckReport("c", {"m": 1}, 0.5, None, True),
                     "CheckReport(check='c', parameters={'m': 1}, min_value=0.5, argmin=None, "
                     "passed=True, details={})", True, None, None, id="CheckReport"),
        pytest.param(lambda: WeightedKernelConstant(0.25, 0.5),
                     "WeightedKernelConstant(closed_form=0.25, series_value=0.5)", True,
                     AttributeError, None, id="WeightedKernelConstant"),
    ])
    def test_record(self, make, text, by_value, frozen, invalid):
        check_record(make, text, by_value, frozen, invalid)

    def test_check_report_details_default_to_a_fresh_dict(self):
        a, b = CheckReport("c", {}, 0.5, None, True), CheckReport("c", {}, 0.5, None, True)
        a.details["k"] = 1
        assert b.details == {} and a != b

    def test_booleans_print_as_booleans(self):
        report = CheckReport("c", {}, 0.5, None, np.True_,
                             details={"a": True, "b": np.True_, "c": 3, "d": np.False_,
                                      "e": np.int64(4), "f": [False, 2.5]})
        line = json.dumps(report.to_dict()["details"], sort_keys=True)
        assert line == '{"a": true, "b": true, "c": 3, "d": false, "e": 4, "f": [false, 2.5]}'
