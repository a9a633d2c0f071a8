import numpy as np
import pytest

from matchgap import exact_ratio, fractional_value, validate_polytope
from matchgap.gallery import (gen_equal_split_star, gen_karp_sipser,
                              gen_pendant_star, gen_random_point, gen_random_points)

from conftest import bits, brute_expected_matching, literal_random_point


class TestKarpSipser:
    def test_general_n3_c1(self):
        inst = gen_karp_sipser(3, 1.0, "general")
        assert inst.num_edges == 3
        assert all(e.x == 0.5 for e in inst.edges)
        report = validate_polytope(inst)
        assert report.degree_ok  # loads exactly 1

    def test_overloaded_flagged(self):
        inst = gen_karp_sipser(8, 3.0, "bipartite")
        report = validate_polytope(inst)
        assert not report.degree_ok
        assert report.violating_vertex_load == pytest.approx(3.0)

    def test_exact_ratio_matches_brute_force(self):
        inst = gen_karp_sipser(3, 1.0, "general")
        denom = fractional_value(inst)
        assert exact_ratio(inst).value == pytest.approx(
            brute_expected_matching(inst) / denom, abs=1e-9)

    def test_bipartite_counts(self):
        inst = gen_karp_sipser(4, 0.5, "bipartite")
        assert inst.num_edges == 16
        assert all(e.x == 0.125 for e in inst.edges)


class TestPendantStar:
    def test_layout_n2(self):
        inst = gen_pendant_star(2, 0.5)
        assert sorted(e.x for e in inst.edges) == [0.5, 0.5, 0.5]
        assert inst.edges[0].x == 0.5  # designated edge first

    def test_loads_feasible_for_all_eps(self):
        for n in (2, 3, 10):
            for eps in (0.01, 0.3, 0.99, 1.0):
                assert validate_polytope(gen_pendant_star(n, eps)).degree_ok

    def test_edge_count(self):
        assert gen_pendant_star(7, 0.2).num_edges == 8

    def test_invalid_eps(self):
        with pytest.raises(ValueError):
            gen_pendant_star(3, 0.0)


class TestEqualSplitStar:
    def test_n2_is_symmetric_path(self):
        inst = gen_equal_split_star(2, 0.5)
        assert inst.num_edges == 3
        assert all(e.x == 0.5 for e in inst.edges)

    def test_loads_exactly_one_at_hubs(self):
        from matchgap import vertex_loads
        inst = gen_equal_split_star(5, 0.3)
        loads = vertex_loads(inst)
        assert loads[0] == pytest.approx(1.0)          # L0
        assert loads[inst.n] == pytest.approx(1.0)     # R0
        assert validate_polytope(inst).degree_ok


class TestRandomPoint:
    @pytest.mark.parametrize("kind", ["bipartite", "general"])
    def test_always_degree_feasible(self, kind):
        for seed in range(60):
            inst = gen_random_point(5, 0.7, seed, kind)
            assert validate_polytope(inst).degree_ok

    def test_zero_density_empty(self):
        assert gen_random_point(4, 0.0, 1, "bipartite").num_edges == 0

    def test_deterministic_in_seed(self):
        a = gen_random_point(4, 0.6, 42, "general")
        b = gen_random_point(4, 0.6, 42, "general")
        assert a == b
        c = gen_random_point(4, 0.6, 43, "general")
        assert a != c

    def test_unit_weight_mode(self):
        inst = gen_random_point(4, 0.8, 3, "bipartite", weighted=False)
        assert inst.is_unweighted


class TestRandomPoints:
    """The batched generator against the per-seed loop."""

    SEEDS = [0, 1, 2, 7, 42, 2 ** 63 + 5, 2 ** 64 - 1]

    @pytest.mark.parametrize("kind", ["bipartite", "general"])
    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("n, density", [(0, 0.5), (1, 0.6), (2, 0.6), (3, 0.0),
                                            (4, 0.6), (6, 0.9)])
    def test_union_holds_each_seeds_instance(self, kind, weighted, n, density):
        union, cuts = gen_random_points(n, density, self.SEEDS, kind, weighted)
        count = len(self.SEEDS)
        assert (union.kind, union.n, len(cuts)) == (kind, n * count, count + 1)
        assert cuts[0] == 0 and cuts[-1] == union.num_edges
        for k, seed in enumerate(self.SEEDS):
            want = literal_random_point(n, density, seed, kind, weighted)
            a, b = cuts[k], cuts[k + 1]
            shift = [k * n, k * n + (count - 1) * n * (kind == "bipartite")]
            assert np.array_equal(union.endpoints[a:b] - shift, want.endpoints)
            assert bits(union.x[a:b]) == bits(want.x)
            assert bits(union.w[a:b]) == bits(want.w)
            one = gen_random_point(n, density, seed, kind, weighted)
            assert one == want and bits(one.x) == bits(want.x)

    def test_some_draws_are_empty(self):
        _, cuts = gen_random_points(2, 0.6, self.SEEDS, "general")
        sizes = np.diff(cuts).tolist()
        assert 0 in sizes and 1 in sizes

    def test_no_seeds(self):
        union, cuts = gen_random_points(3, 0.5, [], "bipartite")
        assert (union.n, union.num_edges, cuts.tolist()) == (0, 0, [0])
