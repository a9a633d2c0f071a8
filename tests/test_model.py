import copy
import itertools
import json
import math
import pickle
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from matchgap import (Instance, OddSetCheckInfeasible, PotentialEdge, dump_instance,
                      fractional_value, instance_from_dict, mc_ratio,
                      validate_polytope, vertex_loads)
from matchgap.cli import main
from matchgap.gallery import (gen_equal_split_star, gen_karp_sipser, gen_pendant_star,
                              gen_random_point, gen_random_points)
from matchgap.model import InstanceFormatError


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


class TestEndpointLayout:
    """One endpoint store per instance: a read-only, C-contiguous (2, m)
    int64 array, of which ``endpoints`` is the (m, 2) transposed view."""

    @staticmethod
    def check(inst, ends):
        cols = inst.endpoints.T
        assert cols.flags.c_contiguous and cols.dtype == np.int64
        assert inst.endpoints.shape == (inst.num_edges, 2)
        assert inst.endpoints.tolist() == np.asarray(ends).reshape(-1, 2).tolist()
        for arr in (cols, inst.endpoints):
            with pytest.raises(ValueError, match="read-only"):
                arr[...] = 0

    @pytest.mark.parametrize("edges", [(), ((1, 1, 0.5, 1.0), (0, 1, 0.5, 2.0), (1, 0, 0.5, 1.0))])
    def test_from_records(self, edges):
        ends = [(u, v + 2) for u, v, _, _ in edges]
        self.check(bip(2, *edges), ends)
        self.check(gen(4, *((u, v + 2, x, w) for u, v, x, w in edges)), ends)

    @pytest.mark.parametrize("m", [0, 2, 3])  # one row is also a column: adopted
    def test_from_arrays_copies_rows_once_and_adopts_columns(self, m):
        cols = np.array([[0, 1, 2], [3, 5, 4]], dtype=np.int64)[:, :m].copy()
        rows = np.ascontiguousarray(cols.T)
        x, w = np.full(m, 0.5), np.ones(m)
        inst = Instance.from_arrays("bipartite", 3, rows, x, w)
        self.check(inst, rows)
        assert rows.flags.writeable and not np.shares_memory(inst.endpoints, rows)
        inst = Instance.from_arrays("bipartite", 3, cols.T, x, w)
        self.check(inst, rows)
        assert m == 0 or np.shares_memory(inst.endpoints, cols)
        if m:  # a list of pairs too; an empty list has no second axis
            self.check(Instance.from_arrays("bipartite", 3, rows.tolist(), x, w), rows)

    def test_pickle_and_scaling_keep_the_layout(self):
        inst = bip(3, (0, 1, 0.25, 2.0), (1, 0, 0.5, 1.0), (2, 2, 0.125, 0.5))
        for again in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
            self.check(again, inst.endpoints)
        scaled = inst.scale_probabilities(0.5)
        self.check(scaled, inst.endpoints)
        assert np.shares_memory(scaled.endpoints, inst.endpoints)

    @pytest.mark.parametrize("make, ends", [
        (lambda: gen_karp_sipser(3, 1.0, "bipartite"),
         [(u, 3 + v) for u, v in itertools.product(range(3), repeat=2)]),
        (lambda: gen_karp_sipser(4, 1.0, "general"), list(itertools.combinations(range(4), 2))),
        (lambda: gen_pendant_star(4, 0.25), [(0, 4), (0, 5), (1, 4), (2, 4), (3, 4)]),
        (lambda: gen_equal_split_star(3, 0.25), [(0, 3), (0, 4), (0, 5), (1, 3), (2, 3)]),
        (lambda: gen_random_points(3, 1.0, [1, 2], "bipartite")[0],
         [(u + 3 * k, 6 + v + 3 * k) for k in range(2)
          for u, v in itertools.product(range(3), repeat=2)]),
        (lambda: gen_random_point(4, 1.0, 5, "general"), list(itertools.combinations(range(4), 2))),
    ])
    def test_generators_pass_their_columns_uncopied(self, monkeypatch, make, ends):
        passed = []
        build = Instance.from_arrays

        def spy(kind, n, endpoints, x, w):
            passed.append(endpoints)
            return build(kind, n, endpoints, x, w)
        monkeypatch.setattr(Instance, "from_arrays", spy)
        inst = make()
        self.check(inst, ends)
        assert np.shares_memory(inst.endpoints, passed[-1])


NAN, INF = math.nan, math.inf

#: (kind, n, edges as (u, v, x, w), message): several bad edges each; the
#: messages were recorded from the per-edge record constructor
INVALID = [
    ("bipartite", 3, [(0, 0, 0.5, 1.0), (1, 1, 1.5, 1.0), (2, 2, 0.5, -1.0)],
     "edge (1,1) has probability 1.5 outside [0,1]"),
    ("bipartite", 3, [(0, 0, 0.5, 1.0), (1, 1, 0.5, -1.0), (2, 2, 1.5, 1.0)],
     "edge (1,1) has invalid weight -1.0"),
    ("bipartite", 3, [(0, 0, 0.5, 1.0), (1, 1, 2.0, INF), (0, 0, 0.5, 1.0)],
     "edge (1,1) has probability 2.0 outside [0,1]"),
    ("bipartite", 3, [(0, 0, 0.5, 1.0), (0, 3, 0.5, 1.0), (0, 0, 0.5, 1.0)],
     "edge (0,3) endpoint out of range for n=3"),
    ("bipartite", 3, [(0, 1, 0.5, 1.0), (1, 0, 0.2, 1.0), (0, 1, 0.2, 1.0), (5, 0, 0.5, 1.0)],
     "duplicate edge (0, 1)"),
    ("bipartite", 3, [(1, 1, 0.5, 1.0), (-1, 2, 0.5, 1.0), (1, 1, 0.5, 1.0)],
     "edge (-1,2) endpoint out of range for n=3"),
    ("bipartite", 2, [(0, 0, 0.5, 1.0), (1, 1, NAN, 1.0)],
     "edge (1,1) has probability nan outside [0,1]"),
    ("bipartite", 2, [(0, 0, 0.5, NAN), (1, 1, 0.5, 1.0)],
     "edge (0,0) has invalid weight nan"),
    ("bipartite", 2, [(0, 0, -0.0, 0.0), (1, 1, 1.0000000000000002, 1.0)],
     "edge (1,1) has probability 1.0000000000000002 outside [0,1]"),
    ("bipartite", 2, [(0, 0, 0.5, 1.0), (1, 2, 0.5, -3.0), (1, 2, 0.5, 1.0)],
     "edge (1,2) has invalid weight -3.0"),
    ("general", 4, [(0, 1, 0.5, 1.0), (2, 2, 0.5, 1.0), (1, 0, 0.5, 1.0)],
     "self-loop at vertex 2"),
    ("general", 4, [(0, 1, 0.5, 1.0), (2, 3, 0.5, 1.0), (3, 2, 0.5, 1.0), (1, 1, 0.5, 1.0)],
     "duplicate edge (2, 3)"),
    ("general", 4, [(0, 1, 0.5, 1.0), (4, 4, 0.5, 1.0), (1, 1, 0.5, 1.0)],
     "edge (4,4) endpoint out of range for n=4"),
    ("general", 4, [(0, 1, 0.5, 1.0), (1, 1, 1.5, 1.0)],
     "edge (1,1) has probability 1.5 outside [0,1]"),
    ("general", 4, [(2, 2, 0.5, -2.0), (0, 1, 0.5, 1.0)],
     "edge (2,2) has invalid weight -2.0"),
    ("general", 4, [(0, 1, 0.5, 1.0), (1, 2, 0.5, 1.0), (2, 1, 0.5, 1.0), (3, 3, 0.5, 1.0),
                    (0, 9, 0.5, 1.0), (0, 2, -0.1, 1.0)],
     "duplicate edge (1, 2)"),
    ("general", 3, [(2, 0, 0.5, 1.0), (0, 2, 0.5, INF)],
     "edge (0,2) has invalid weight inf"),
    ("general", 3, [(2, 0, 0.5, 1.0), (0, -1, 0.5, 1.0), (0, 2, 0.5, 1.0)],
     "edge (0,-1) endpoint out of range for n=3"),
    ("tree", 2, [(0, 0, 1.5, 1.0)], "unknown instance kind 'tree'"),
    ("general", -1, [(0, 0, 1.5, 1.0)], "vertex count must be nonnegative"),
]


def from_columns(kind, n, edges):
    """The same instance built by the array constructor."""
    u, v, x, w = (list(c) for c in zip(*edges))
    right = [b + n for b in v] if kind == "bipartite" else v
    return Instance.from_arrays(kind, n, np.array([u, right]).T, np.array(x), np.array(w))


class TestValidation:
    @pytest.mark.parametrize("kind, n, edges, message", INVALID)
    def test_first_bad_edge_from_records(self, kind, n, edges, message):
        with pytest.raises(ValueError) as info:
            Instance(kind, n, tuple(PotentialEdge(*e) for e in edges))
        assert str(info.value) == message

    @pytest.mark.parametrize("kind, n, edges, message", INVALID)
    def test_first_bad_edge_from_arrays(self, kind, n, edges, message):
        with pytest.raises(ValueError) as info:
            from_columns(kind, n, edges)
        assert str(info.value) == message

    def test_endpoint_beyond_int64_refused(self):
        with pytest.raises(ValueError, match="64-bit"):
            bip(2, (0, 0, 0.5, 1.0), (2 ** 63, 0, 0.5, 1.0))

    def test_mismatched_columns_refused(self):
        with pytest.raises(ValueError, match="endpoints"):
            Instance.from_arrays("general", 3, np.array([[0, 1]]), np.array([0.5, 0.5]),
                                 np.array([1.0, 1.0]))


class TestColumnar:
    def test_records_and_arrays_agree(self):
        edges = [(0, 1, 0.25, 2.0), (1, 0, 0.5, 1.0), (2, 2, 0.125, 0.5)]
        inst = bip(3, *edges)
        assert inst == from_columns("bipartite", 3, edges)
        assert inst.endpoints.tolist() == [[0, 4], [1, 3], [2, 5]]
        assert inst.edges == tuple(PotentialEdge(*e) for e in edges)
        assert [type(f) for f in inst.columns()[0] + inst.columns()[2]] == [int] * 3 + [float] * 3

    def test_immutable(self):
        inst = bip(2, (0, 1, 0.5, 1.0))
        for arr in (inst.endpoints, inst.x, inst.w):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0
        with pytest.raises(FrozenInstanceError):
            inst.n = 3
        for again in (pickle.loads(pickle.dumps(inst)), copy.deepcopy(inst)):
            assert again == inst and not again.x.flags.writeable

    def test_mc_path_builds_no_records(self):
        inst = gen_karp_sipser(200, 1.0, "bipartite")
        assert validate_polytope(inst).degree_ok
        assert fractional_value(inst) > 0
        mc_ratio(inst, 20, 0)
        assert "edges" not in vars(inst)

    def test_cli_mc_builds_no_records(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a per-edge record was built")

        monkeypatch.setattr(PotentialEdge, "__init__", refuse)
        assert main("mc --gen karp_sipser --kind bipartite --n 200 --c 1.0 --samples 20"
                    .split()) == 0
        assert "monte_carlo" in capsys.readouterr().out

    def test_million_edges_within_three_times_their_arrays(self):
        # the instance's own arrays plus at most twice their size in
        # transients while generating, validating and checking loads
        tracemalloc.start()
        try:
            inst = gen_karp_sipser(1000, 1.0, "bipartite")
            report = validate_polytope(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        own = inst.endpoints.nbytes + inst.x.nbytes + inst.w.nbytes
        assert inst.num_edges == 10 ** 6 and own == 32 * 10 ** 6
        assert report.degree_ok
        assert peak <= 3 * own


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
        again = instance_from_dict(json.loads(dump_instance(inst)))
        assert again == inst

    def test_missing_weight_defaults_to_one(self):
        data = {"kind": "bipartite", "n": 2, "edges": [{"u": 0, "v": 1, "x": 0.5}]}
        inst = instance_from_dict(data)
        assert inst.edges[0].w == 1.0

    def test_whole_floats_read_as_integers(self):
        whole = {"kind": "bipartite", "n": 2.0, "edges": [{"u": 1.0, "v": 0, "x": 1}]}
        exact = {"kind": "bipartite", "n": 2, "edges": [{"u": 1, "v": 0, "x": 1.0}]}
        assert instance_from_dict(whole) == instance_from_dict(exact)

    @pytest.mark.parametrize("n", [True, float("inf"), float("nan"), "2"])
    def test_vertex_count_must_be_an_integer(self, n):
        with pytest.raises(InstanceFormatError, match='"n" must be'):
            instance_from_dict({"kind": "general", "n": n, "edges": []})

    def test_dump_is_deterministic(self):
        inst = gen_random_point(3, 0.5, 7, "general")
        assert dump_instance(inst) == dump_instance(inst)
        parsed = json.loads(dump_instance(inst))
        assert parsed["kind"] == "general"
