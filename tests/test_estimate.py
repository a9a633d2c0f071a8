import math
import tracemalloc

import numpy as np
import pytest

from matchgap import (Instance, PotentialEdge, RatioEstimate, SupportTooLarge, ZeroDenominator,
                      exact_ratio, expected_matching_value, mc_ratio,
                      per_edge_certificate, per_edge_masses_exact, ratio_floor,
                      weighted_kernel_constant)
from matchgap import (DEFAULT_TRANSFER, SampledGraph, WEIGHTED_BIPARTITE_FLOOR, estimate,
                      per_edge_certificates,
                      per_edge_masses_exact, sample, sampling, support_probabilities,
                      unweighted_scheme, weighted_scheme)
from matchgap import matching, schemes
from matchgap.gallery import (gen_equal_split_star, gen_karp_sipser, gen_pendant_star,
                              gen_random_point)
from matchgap.sampling import block_rows, dense_block
from matchgap.schemes import _transfers

from conftest import (bits, block_bytes, brute_expected_matching, check_record,
                      reference_cover, reference_primal_dual)


class TestExactRatio:
    def test_single_edge_is_one(self):
        inst = Instance("bipartite", 1, (PotentialEdge(0, 0, 0.7, 2.0),))
        est = exact_ratio(inst)
        assert est.value == pytest.approx(1.0, abs=1e-12)
        assert est.ci_low == est.ci_high == est.value
        assert est.method == "exact"

    def test_disjoint_edges_ratio_one(self):
        inst = Instance("bipartite", 2, (PotentialEdge(0, 0, 0.3, 2.0),
                                         PotentialEdge(1, 1, 0.9, 0.5)))
        assert exact_ratio(inst).value == pytest.approx(1.0, abs=1e-12)

    def test_two_edges_sharing_vertex(self):
        # four outcomes: E[nu] = 0.25*0 + 0.5*1 + 0.25*1 = 0.75, sum x = 1
        inst = Instance("bipartite", 2, (PotentialEdge(0, 0, 0.5, 1.0),
                                         PotentialEdge(1, 0, 0.5, 1.0)))
        assert exact_ratio(inst).value == pytest.approx(0.75, abs=1e-12)

    @pytest.mark.parametrize("seed", range(25))
    def test_against_outcome_enumeration(self, seed):
        kind = "bipartite" if seed % 2 else "general"
        inst = gen_random_point(3, 0.6, 90_000 + seed, kind)
        if inst.num_edges == 0 or inst.num_edges > 8:
            return
        denom = float(np.dot(inst.x, inst.w))
        if denom <= 0:
            return
        assert exact_ratio(inst).value == pytest.approx(
            brute_expected_matching(inst) / denom, abs=1e-9)

    def test_ratio_never_exceeds_one(self):
        for seed in range(40):
            inst = gen_random_point(3, 0.7, 70_000 + seed, "general")
            if inst.num_edges == 0 or float(np.dot(inst.x, inst.w)) <= 0:
                continue
            assert exact_ratio(inst).value <= 1.0 + 1e-9

    def test_zero_denominator(self):
        inst = Instance("bipartite", 1, (PotentialEdge(0, 0, 0.0, 1.0),))
        with pytest.raises(ZeroDenominator):
            exact_ratio(inst)

    def test_support_cutoff(self):
        inst = gen_karp_sipser(5, 1.0, "bipartite")  # 25 edges
        with pytest.raises(SupportTooLarge):
            exact_ratio(inst)


class TestMcRatio:
    def test_certain_edge_zero_variance(self):
        inst = Instance("bipartite", 1, (PotentialEdge(0, 0, 1.0, 1.0),))
        est = mc_ratio(inst, 200, seed=0)
        assert est.value == 1.0
        assert est.ci_low == est.ci_high == 1.0

    def test_agrees_with_exact_within_ci(self):
        inst = Instance("bipartite", 2, (PotentialEdge(0, 0, 0.5, 1.0),
                                         PotentialEdge(1, 0, 0.5, 1.0)))
        est = mc_ratio(inst, 100_000, seed=5)
        assert est.ci_low <= 0.75 <= est.ci_high
        assert abs(est.value - 0.75) < 0.005

    def test_deterministic_given_seed(self):
        inst = gen_random_point(4, 0.7, 3, "bipartite", weighted=False)
        a = mc_ratio(inst, 500, seed=9)
        b = mc_ratio(inst, 500, seed=9)
        assert a == b

    def test_chunking_invariance(self, monkeypatch):
        # blocks of 1 row, then of an odd row count that does not divide
        # the sample count, give the bytes of the default block size, for
        # each of the three solvers (Kuhn, primal-dual, exact search)
        for kind, weighted in (("bipartite", False), ("bipartite", True), ("general", True)):
            inst = gen_random_point(4, 0.7, 4, kind, weighted=weighted)
            ref = repr(mc_ratio(inst, 300, seed=2))
            for rows in (1, 7):
                monkeypatch.setattr(sampling, "BLOCK_BYTES", rows * 8 * inst.num_edges)
                assert repr(mc_ratio(inst, 300, seed=2)) == ref, (kind, weighted, rows)
            monkeypatch.undo()

    def test_seed_stability_karp_sipser(self):
        # two independent runs agree within their own confidence intervals
        inst = gen_karp_sipser(120, 3.0, "bipartite")
        a = mc_ratio(inst, 1000, seed=7)
        b = mc_ratio(inst, 1000, seed=8)
        assert a.ci_low <= b.value <= a.ci_high

    def test_weighted_general_small(self):
        inst = gen_random_point(5, 0.5, 17, "general")
        if inst.num_edges == 0:
            return
        exact = exact_ratio(inst).value
        est = mc_ratio(inst, 20_000, seed=1)
        assert est.ci_low - 0.01 <= exact <= est.ci_high + 0.01


class TestPerEdgeCertificates:
    def test_isolated_edge_certificate_one(self):
        inst = Instance("bipartite", 1, (PotentialEdge(0, 0, 0.4, 1.0),))
        assert per_edge_certificate(inst, 0, "exact", "weighted") == pytest.approx(1.0)
        assert per_edge_certificate(inst, 0, "exact", "weighted", "kernel") == \
            pytest.approx(1.0)

    def test_zero_probability_rejected(self):
        inst = Instance("bipartite", 2, (PotentialEdge(0, 0, 0.0, 1.0),
                                         PotentialEdge(1, 1, 0.5, 1.0)))
        with pytest.raises(ZeroDenominator):
            per_edge_certificate(inst, 0)

    def test_general_rejected(self):
        inst = gen_random_point(3, 0.9, 0, "general")
        with pytest.raises(TypeError):
            per_edge_certificate(inst, 0)

    def test_mass_exact_vs_mc(self):
        inst = gen_pendant_star(3, 0.4)
        exact = per_edge_certificate(inst, 0, "exact", "weighted", "mass")
        mc = per_edge_certificate(inst, 0, "mc", "weighted", "mass",
                                  samples=60_000, seed=3)
        assert mc == pytest.approx(exact, abs=0.02)

    def test_kernel_exact_matches_conditional_formula(self):
        inst = gen_pendant_star(4, 0.3)
        from matchgap import inv_max_expectation
        expect = inv_max_expectation([0.7], [0.7 / 3] * 3)
        assert per_edge_certificate(inst, 0, "exact", "weighted", "kernel") == \
            pytest.approx(expect, abs=1e-12)

    def test_kernel_mc_matches_exact(self):
        inst = gen_pendant_star(6, 0.2)
        exact = per_edge_certificate(inst, 0, "exact", "weighted", "kernel")
        mc = per_edge_certificate(inst, 0, "mc", "weighted", "kernel",
                                  samples=40_000, seed=11)
        assert mc == pytest.approx(exact, abs=0.01)

    def test_kernel_mc_equals_per_sample_loop(self, monkeypatch):
        # the per-sample reference: force e, count degrees, sum in order;
        # blocks of 7 rows carry the running sums across block edges
        inst = gen_pendant_star(5, 0.2)
        samples, seed = 300, 7
        monkeypatch.setattr(sampling, "BLOCK_BYTES", block_bytes(inst, 7))
        for edge in range(inst.num_edges):
            gu, gv = inst.endpoints[edge]
            total = 0.0
            for i in range(samples):
                realized = sample(inst, seed, i).realized.copy()
                realized[edge] = True
                deg = SampledGraph(inst, realized).degrees
                total += 1.0 / max(deg[gu], deg[gv])
            got = per_edge_certificate(inst, edge, "mc", "weighted", "kernel",
                                       samples=samples, seed=seed)
            assert got == total / samples

    @pytest.mark.parametrize("scheme", ["weighted", "unweighted"])
    def test_mass_mc_equals_per_sample_loop(self, monkeypatch, scheme):
        # the per-sample reference: solve, run the scheme, add in order;
        # blocks of 7 rows carry the running sums across block edges
        inst = (gen_random_point(4, 0.6, 12, "bipartite") if scheme == "weighted"
                else gen_pendant_star(5, 0.2))
        samples, seed = 300, 5
        monkeypatch.setattr(sampling, "BLOCK_BYTES", block_bytes(inst, 7))
        run = weighted_scheme if scheme == "weighted" else unweighted_scheme
        total = np.zeros(inst.num_edges)
        for i in range(samples):
            g = sample(inst, seed, i)
            total += run(g, reference_cover(g)).edge_mass
        for edge, e in enumerate(inst.edges):
            got = per_edge_certificate(inst, edge, "mc", scheme, "mass",
                                       samples=samples, seed=seed)
            assert got == float(total[edge] / samples) / (e.w * e.x)

    @pytest.mark.parametrize("scheme", ["weighted", "unweighted"])
    def test_mass_exact_equals_per_mask_loop(self, monkeypatch, scheme):
        # the per-mask reference: solve, run the scheme, add p * mass in
        # mask order; chunks of 7 masks carry the sums across chunk edges
        inst = (gen_random_point(3, 0.8, 40, "bipartite") if scheme == "weighted"
                else gen_pendant_star(4, 0.3))
        monkeypatch.setattr(estimate, "_MASK_CHUNK", 7)
        run = weighted_scheme if scheme == "weighted" else unweighted_scheme
        probs = support_probabilities(inst)
        bits = 1 << np.arange(inst.num_edges)
        total = np.zeros(inst.num_edges)
        for mask in range(1 << inst.num_edges):
            if probs[mask] != 0.0:
                g = SampledGraph(inst, (mask & bits) != 0)
                total += probs[mask] * run(g, reference_cover(g)).edge_mass
        assert per_edge_masses_exact(inst, scheme).tobytes() == total.tobytes()

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    @pytest.mark.parametrize("scheme", ["weighted", "unweighted"])
    def test_mass_does_not_depend_on_the_cover_path(self, monkeypatch, mode, scheme):
        # covers solved in groups of 1 and of 7 rows against the default
        # groups: equal bytes.  Exact mass takes one mask chunk a group;
        # Monte Carlo blocks of 3 rows stay alone, or gather 3 to a group
        inst = (gen_random_point(5, 0.5, 3, "bipartite") if scheme == "weighted"
                else gen_equal_split_star(6, 0.1))

        def certs():
            return repr(per_edge_certificates(inst, mode, scheme, "mass", samples=3000, seed=2))

        default = certs()
        real_groups, real_solver = estimate.block_groups, estimate.cover_solver
        solved = []

        def cover_solver(inst):
            solve = real_solver(inst)
            return lambda flat, rows: solved.append(rows) or solve(flat, rows)

        monkeypatch.setattr(estimate, "cover_solver", cover_solver)
        monkeypatch.setattr(sampling, "BLOCK_BYTES", block_bytes(inst, 3))
        for rows, group in ((1, 3), (7, 9)):
            monkeypatch.setattr(estimate, "_MASK_CHUNK", rows)
            monkeypatch.setattr(estimate, "block_groups",
                                lambda blocks, _: real_groups(blocks, rows))
            solved.clear()
            assert certs() == default
            assert set(solved[:-1]) == {rows if mode == "exact" else group}

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    @pytest.mark.parametrize("scheme", ["weighted", "unweighted"])
    def test_mass_of_an_instance_without_vertices(self, mode, scheme):
        # the group size divides by the vertex count
        inst = Instance("bipartite", 0, ())
        assert per_edge_certificates(inst, mode, scheme, "mass", samples=10) == {}

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_transfers_once_per_certificate(self, monkeypatch, mode):
        # the unweighted scheme's transfer vector is the same in every row:
        # one `_transfers` call serves a serial run of many blocks
        inst = gen_equal_split_star(6, 0.1)
        monkeypatch.setattr(estimate, "_MASK_CHUNK", 7)
        monkeypatch.setattr(sampling, "BLOCK_BYTES", block_bytes(inst, 3))
        calls = []
        monkeypatch.setattr(schemes, "_transfers", lambda inst: calls.append(1) or _transfers(inst))
        per_edge_certificates(inst, mode, "unweighted", "mass", samples=300, seed=2)
        assert len(calls) == 1

    @pytest.mark.parametrize("bound", ["mass", "kernel"])
    def test_mc_needs_a_sample(self, bound):
        with pytest.raises(ValueError, match="at least one sample"):
            per_edge_certificate(gen_pendant_star(3, 0.4), 0, "mc", "weighted", bound,
                                 samples=0)

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    @pytest.mark.parametrize("bound", ["mass", "kernel"])
    @pytest.mark.parametrize("scheme", ["weighted", "unweighted"])
    def test_all_edges_match_single_edge_floats(self, mode, bound, scheme):
        inst = gen_pendant_star(4, 0.3)
        certs = per_edge_certificates(inst, mode, scheme, bound, samples=200, seed=4)
        assert list(certs) == [j for j, e in enumerate(inst.edges) if e.x > 0]
        for j, cert in certs.items():
            single = per_edge_certificate(inst, j, mode, scheme, bound,
                                          samples=200, seed=4)
            assert type(single) is float and type(cert) is float
            assert cert == single

    def test_mass_dominates_kernel(self):
        for seed in range(15):
            inst = gen_random_point(3, 0.7, 50_000 + seed, "bipartite")
            for j, e in enumerate(inst.edges):
                if e.x == 0 or e.w == 0:
                    continue
                mass = per_edge_certificate(inst, j, "exact", "weighted", "mass")
                kern = per_edge_certificate(inst, j, "exact", "weighted", "kernel")
                assert mass >= kern - 1e-9

    @pytest.mark.parametrize("mode", ["exact", "mc"])
    def test_unweighted_kernel_equals_all_edge_scan(self, mode):
        # each certificate is the weighted kernel plus the mass scheme's
        # transfer vector over x_e, bit for bit; the reference scans every
        # edge for the ones sharing an endpoint and adds their transfers in
        # edge order, equal within test_schemes.py's transfer tolerance
        from matchgap import inv_max_expectation
        inst = gen_random_point(8, 0.7, 21, "bipartite", weighted=False)
        x, ends, c = inst.x, inst.endpoints, DEFAULT_TRANSFER
        moved = DEFAULT_TRANSFER * _transfers(inst)
        weighted = per_edge_certificates(inst, mode, "weighted", "kernel", samples=50, seed=2)
        got = per_edge_certificates(inst, mode, "unweighted", "kernel", samples=50, seed=2)
        for e, cert in got.items():
            assert cert == weighted[e] + float(moved[e]) / inst.edges[e].x
            net = 0.0
            for j in range(inst.num_edges):
                shared = len(set(ends[j].tolist()) & set(ends[e].tolist())) if j != e else 0
                if shared:
                    net += shared * c * (x[j] ** 2 * x[e] - x[e] ** 2 * x[j])
            assert moved[e] == pytest.approx(net, abs=1e-15)
            if mode == "exact":
                near = [[j for j in range(inst.num_edges) if j != e and v in ends[j]]
                        for v in ends[e]]
                assert weighted[e] == inv_max_expectation([float(x[j]) for j in near[0]],
                                                          [float(x[j]) for j in near[1]])

    def test_transfers_match_per_pair_loop(self):
        # the per-pair loop, on a dense instance whose probabilities include
        # values where the scalar x ** 2 (C pow) and x * x differ in the last
        # bit, within test_schemes.py's transfer tolerance
        def per_pair(inst, edge, inc):
            x = inst.x
            gu, gv = inst.endpoints[edge].tolist()
            xe = x[edge]
            at_u, at_v = set(inc[gu]), set(inc[gv])
            net = 0.0
            for j in sorted(at_u | at_v):
                if j == edge:
                    continue
                shared = (j in at_u) + (j in at_v)
                net += shared * DEFAULT_TRANSFER * (x[j] ** 2 * xe - xe ** 2 * x[j])
            return net

        n = 24
        xs = np.random.default_rng(5).random(n * n) / n
        assert any(v ** 2 != v * v for v in xs.tolist())
        dense = Instance("bipartite", n, tuple(PotentialEdge(u, v, float(xs[u * n + v]))
                                               for u in range(n) for v in range(n)))
        for inst in (dense, gen_pendant_star(40, 0.1),
                     gen_random_point(8, 0.7, 21, "bipartite", weighted=False)):
            inc = estimate._incident_edges(inst)
            moved = DEFAULT_TRANSFER * _transfers(inst)
            for e in range(inst.num_edges):
                assert moved[e] == pytest.approx(per_pair(inst, e, inc), abs=1e-15), (inst.n, e)

    def test_unweighted_kernel_includes_transfers(self):
        inst = gen_pendant_star(3, 0.4)  # unit weights
        base = per_edge_certificate(inst, 0, "exact", "weighted", "kernel")
        with_transfers = per_edge_certificate(inst, 0, "exact", "unweighted", "kernel")
        assert with_transfers != pytest.approx(base)

    def test_weighted_floor_on_random_instances(self):
        floor = WEIGHTED_BIPARTITE_FLOOR
        for seed in range(25):
            inst = gen_random_point(3, 0.6, 20_000 + seed, "bipartite")
            if inst.num_edges == 0:
                continue
            masses = per_edge_masses_exact(inst, "weighted")
            for j, e in enumerate(inst.edges):
                if e.x > 0 and e.w > 0:
                    assert masses[j] / (e.w * e.x) >= floor - 1e-9

    def test_unweighted_mass_floor_on_small_instances(self):
        # the per-edge expected mass under the quadratic-transfer scheme
        # clears 0.476 x_e on enumerable instances (the asymptotic envelope
        # dips below only for large spread-out stars)
        from matchgap.gallery import gen_equal_split_star
        insts = []
        for seed in range(60):
            inst = gen_random_point(2 + seed % 3, 0.6, 200_000 + seed,
                                    "bipartite", weighted=False)
            if 0 < inst.num_edges <= 10:
                insts.append(inst)
        for n in (2, 3, 4):
            for eps in (0.1, 0.25, 0.5, 0.75, 1.0):
                insts.append(gen_equal_split_star(n, eps))
        for inst in insts:
            masses = per_edge_masses_exact(inst, "unweighted")
            for j, e in enumerate(inst.edges):
                if e.x > 0:
                    assert masses[j] / e.x >= 0.476 - 1e-9

    def test_large_spread_star_kernel_near_series_limit(self):
        # n = 50, eps = 0.01: the unweighted kernel certificate of the tiny
        # edge sits within 0.01 of the truncated-series value at x -> 0
        from matchgap import poisson_truncated_series
        from matchgap.gallery import gen_equal_split_star
        inst = gen_equal_split_star(50, 0.01)
        cert = per_edge_certificate(inst, 0, "exact", "unweighted", "kernel")
        assert cert == pytest.approx(poisson_truncated_series(0.01, 15), abs=0.01)


class TestMisc:
    def test_expected_matching_value(self):
        inst = Instance("bipartite", 2, (PotentialEdge(0, 0, 0.5, 1.0),
                                         PotentialEdge(1, 0, 0.5, 1.0)))
        assert expected_matching_value(inst) == pytest.approx(0.75, abs=1e-12)

    def test_ratio_floor_dispatch(self):
        assert ratio_floor(gen_random_point(3, 0.5, 1, "general")) == \
            pytest.approx((math.e ** 2 - 1) / (2 * math.e ** 2))
        assert ratio_floor(gen_random_point(3, 0.5, 1, "bipartite", weighted=False)) == 0.476
        assert ratio_floor(gen_random_point(3, 0.5, 1, "bipartite")) == \
            pytest.approx(weighted_kernel_constant().closed_form)

    def test_csv_row_shape(self):
        inst = Instance("bipartite", 1, (PotentialEdge(0, 0, 0.7, 2.0),))
        row = exact_ratio(inst).csv_row("edge-instance")
        assert row[0] == "edge-instance"
        assert row[1] == "exact"
        assert len(row) == 7


def summands(shape, seed):
    """float64 `shape` of both signs over 40 decades, a tenth -0.0, so
    that the order of addition shows in the bits."""
    gen = np.random.default_rng(seed)
    a = (gen.random(shape) - 0.3) * 10.0 ** gen.integers(-20, 20, shape)
    a[gen.random(shape) < 0.1] = -0.0
    return a


def added_in_order(rows):
    """Column sums of `rows` added to 0.0 in Python floats, row after row."""
    acc = [0.0] * rows.shape[1]
    for row in rows.tolist():
        acc = [s + v for s, v in zip(acc, row)]
    return acc


class TestColumnSums:
    """`sampling.column_sums` and the fold that uses it, `estimate._row_sums`,
    against rows added one at a time in order, bit for bit."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("shape", [(1, 1), (1, 40_000), (2, 1), (3, 1), (330, 1),
                                       (2, 31), (3, 31), (330, 31), (500, 31)])
    def test_rows_added_in_order(self, shape, order):
        a = np.array(summands(shape, shape[0] * 31 + shape[1]), order=order)
        if shape[1] > 1:
            a[:, -1] = -0.0  # sums to 0.0 by either path
        got = sampling.column_sums(a)
        assert got.shape == (shape[1],) and bits(got) == bits(added_in_order(a))
        if shape[0] >= 330:  # a pairwise sum, as np.add.reduce takes down a contiguous axis
            assert bits(np.add.reduce(np.asfortranarray(a), axis=0)) != bits(got)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("m", [1, 31])
    def test_fold_adds_row_by_row(self, m, order):
        # pieces of 1, 3, 2 and 330 rows, in C or Fortran order (as
        # kernel-MC pieces come), folded from 0.0
        heights = [1, 3, 2, 330]
        pieces = [np.array(summands((h, m), k), order=order) for k, h in enumerate(heights)]
        want = added_in_order(np.concatenate(pieces))

        def fill(first, stop):
            assert (first, stop) == (0, sum(heights))
            return (p.copy(order=order) for p in pieces)

        got = estimate._row_sums(fill, sum(heights), m, 0)
        assert bits(got) == bits(want)


class TestPooledCovers:
    """Mass-MC gathers consecutive realization blocks into groups whose
    covers one lockstep run solves; the scheme masses stay a block at a
    time.  Blocks of 26 rows gather 7 to a group on Karp-Sipser n=50, of
    246 rows 2 to a group on random_point n=30 density 0.3.  On
    pendant_star n=30, whose 60 vertices outnumber its 31 edges, a block
    of 1,092 rows is a group alone."""

    CASES = [(lambda: gen_karp_sipser(50, 1.0, "bipartite"), 200, 182),
             (lambda: gen_random_point(30, 0.3, 2), 600, 492),
             (lambda: gen_pendant_star(30, 0.1), 1500, 1092)]

    def run(self, monkeypatch, inst, samples):
        """The (flat, rows, covers) of each cover call and the rows of
        each scheme-mass call of a mass-MC certificate."""
        solved, spread = [], []
        real_solver, real_masses = estimate.cover_solver, estimate.block_edge_masses

        def cover_solver(inst):
            solve = real_solver(inst)

            def spy(flat, rows):
                y = solve(flat, rows)
                solved.append((flat, rows, y))
                return y
            return spy

        def block_edge_masses(inst, flat, covers, moved):
            spread.append(len(covers))
            return real_masses(inst, flat, covers, moved)

        monkeypatch.setattr(estimate, "cover_solver", cover_solver)
        monkeypatch.setattr(estimate, "block_edge_masses", block_edge_masses)
        per_edge_certificates(inst, "mc", "weighted", "mass", samples=samples, seed=3)
        return solved, spread

    @pytest.mark.parametrize("case", range(3))
    def test_pooled_covers_equal_the_primal_dual(self, monkeypatch, case):
        make, samples, group = self.CASES[case]
        inst = make()
        solved, _ = self.run(monkeypatch, inst, samples)
        assert [rows for _, rows, _ in solved] == [group, samples - group]
        monkeypatch.undo()
        for flat, rows, covers in solved:
            for row, cover in zip(dense_block(flat, rows, inst.num_edges), covers):
                want = reference_primal_dual(inst, np.flatnonzero(row))[2]
                assert cover.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", range(3))
    def test_scheme_masses_a_block_at_a_time(self, monkeypatch, case):
        make, samples, group = self.CASES[case]
        inst = make()
        solved, spread = self.run(monkeypatch, inst, samples)
        assert max(spread) == block_rows(inst, samples) <= group
        assert (block_rows(inst, samples) < group) == (inst.num_edges > inst.total_vertices)
        assert sum(spread) == samples


@pytest.mark.parametrize("bound", ["kernel", "mass"])
def test_wide_instance_certificates_stay_within_blocks(bound):
    # one edge on 200 vertices: a block's rows are bounded by its (rows, V)
    # degrees and covers, not by its one-edge draws, so 16,000 samples take
    # 327-row blocks.  A block's working set is a few such arrays of at
    # most BLOCK_BYTES each (degrees, maxima and 1 / max for kernel rows;
    # covers, the lockstep's per-vertex state, degrees and masses for
    # mass rows); 16 BLOCK_BYTES holds them with room to spare.  Blocks
    # sized by the edge count alone held all 16,000 rows: 26.5 MB (kernel)
    # and 134.6 MB (mass).
    inst = Instance("bipartite", 100, (PotentialEdge(0, 0, 0.5, 1.0),))
    tracemalloc.start()
    try:
        per_edge_certificates(inst, "mc", "weighted", bound, samples=16_000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * sampling.BLOCK_BYTES


def test_ratio_estimate_record():
    check_record(lambda: RatioEstimate(0.5, 0.4, 0.6, "monte_carlo", 100, 3),
                 "RatioEstimate(value=0.5, ci_low=0.4, ci_high=0.6, method='monte_carlo', "
                 "samples=100, seed=3)", by_value=True, frozen=AttributeError)
