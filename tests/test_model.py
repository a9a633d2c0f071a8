import json

import pytest
from hypothesis import given, settings, strategies as st

from matchgap import (Instance, OddSetCheckInfeasible, PotentialEdge, dump_instance,
                      fractional_value, instance_from_dict, load_instance,
                      validate_polytope, vertex_loads)
from matchgap.gallery import gen_pendant_star, gen_random_point


def bip(n, *edges):
    return Instance("bipartite", n, tuple(PotentialEdge(*e) for e in edges))


def gen(n, *edges):
    return Instance("general", n, tuple(PotentialEdge(*e) for e in edges))


class TestConstruction:
    def test_duplicate_edges_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            bip(2, (0, 0, 0.5, 1.0), (0, 0, 0.2, 1.0))
        with pytest.raises(ValueError, match="duplicate"):
            gen(3, (0, 1, 0.5, 1.0), (1, 0, 0.2, 1.0))

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            gen(3, (1, 1, 0.5, 1.0))

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            bip(2, (0, 0, 1.5, 1.0))
        with pytest.raises(ValueError):
            bip(2, (0, 0, -0.1, 1.0))

    def test_endpoint_range(self):
        with pytest.raises(ValueError):
            bip(2, (0, 2, 0.5, 1.0))
        with pytest.raises(ValueError):
            gen(2, (0, 2, 0.5, 1.0))

    def test_bipartite_same_index_both_sides_is_fine(self):
        inst = bip(2, (1, 1, 0.5, 1.0))
        assert inst.endpoints[0].tolist() == [1, 3]

    @pytest.mark.parametrize("weights, expected", [((), True), ((1.0, 1.0), True),
                                                   ((1.0, 2.0), False), ((0.5,), False)])
    def test_is_unweighted_is_a_cached_bool(self, weights, expected):
        inst = bip(2, *((j, j, 0.5, w) for j, w in enumerate(weights)))
        assert inst.is_unweighted is expected
        assert inst.is_unweighted is expected  # the cached value, same type
        assert type(inst.is_unweighted) is bool


class TestFractionalValue:
    def test_single_edge(self):
        assert fractional_value(bip(2, (0, 0, 0.7, 2.0))) == pytest.approx(1.4)

    def test_empty(self):
        assert fractional_value(Instance("general", 3, ())) == 0.0

    def test_pendant_star_hand_sum(self):
        # eps + (1 - eps) + (n-1) * (1-eps)/(n-1) = 1.5 for eps = 0.5
        inst = gen_pendant_star(3, 0.5)
        assert fractional_value(inst) == pytest.approx(1.5)

    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_linearity_in_x_and_w(self, tx, tw):
        inst = bip(3, (0, 0, 0.5, 2.0), (1, 2, 0.25, 1.0), (2, 1, 0.8, 0.5))
        scaled_x = Instance("bipartite", 3, tuple(
            PotentialEdge(e.u, e.v, tx * e.x, e.w) for e in inst.edges))
        scaled_w = Instance("bipartite", 3, tuple(
            PotentialEdge(e.u, e.v, e.x, tw * e.w) for e in inst.edges))
        base = fractional_value(inst)
        assert fractional_value(scaled_x) == pytest.approx(tx * base, abs=1e-12)
        assert fractional_value(scaled_w) == pytest.approx(tw * base, abs=1e-12)


class TestPolytope:
    def test_single_full_edge_passes(self):
        report = validate_polytope(bip(2, (0, 0, 1.0, 1.0)))
        assert report.degree_ok and report.ok

    def test_star_overload(self):
        inst = bip(3, (0, 0, 0.4, 1.0), (0, 1, 0.4, 1.0), (0, 2, 0.4, 1.0))
        report = validate_polytope(inst)
        assert not report.degree_ok
        assert report.violating_vertex == 0
        assert report.violating_vertex_load == pytest.approx(1.2)

    def test_triangle_odd_set_violation(self):
        inst = gen(3, (0, 1, 0.5, 1.0), (0, 2, 0.5, 1.0), (1, 2, 0.5, 1.0))
        report = validate_polytope(inst, check_odd_sets=True)
        assert report.degree_ok
        assert report.odd_set_checked
        assert report.violating_odd_set == (0, 1, 2)
        assert report.violating_odd_set_load == pytest.approx(1.5)
        assert not report.ok

    def test_odd_set_cutoff_refused(self):
        inst = Instance("general", 15, ())
        with pytest.raises(OddSetCheckInfeasible, match="infeasible"):
            validate_polytope(inst, check_odd_sets=True)

    def test_odd_sets_bipartite_refused(self):
        with pytest.raises(ValueError):
            validate_polytope(bip(2, (0, 0, 0.5, 1.0)), check_odd_sets=True)

    def test_deterministic_report(self):
        inst = gen(4, (0, 1, 0.9, 1.0), (1, 2, 0.9, 1.0), (2, 3, 0.9, 1.0))
        assert validate_polytope(inst) == validate_polytope(inst)

    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_scaling_keeps_feasibility(self, seed, t):
        inst = gen_random_point(4, 0.6, seed, "bipartite")
        assert validate_polytope(inst).degree_ok
        assert validate_polytope(inst.scale_probabilities(t)).degree_ok

    def test_loads_by_hand(self):
        inst = gen(3, (0, 1, 0.3, 1.0), (1, 2, 0.4, 1.0))
        assert vertex_loads(inst).tolist() == pytest.approx([0.3, 0.7, 0.4])


class TestJson:
    def test_round_trip(self):
        inst = gen_pendant_star(4, 0.25)
        again = load_instance(dump_instance(inst))
        assert again == inst

    def test_missing_weight_defaults_to_one(self):
        data = {"kind": "bipartite", "n": 2, "edges": [{"u": 0, "v": 1, "x": 0.5}]}
        inst = instance_from_dict(data)
        assert inst.edges[0].w == 1.0

    def test_dump_is_deterministic(self):
        inst = gen_random_point(3, 0.5, 7, "general")
        assert dump_instance(inst) == dump_instance(inst)
        parsed = json.loads(dump_instance(inst))
        assert parsed["kind"] == "general"
