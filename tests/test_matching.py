import itertools

import numpy as np
import pytest

from matchgap import (Instance, MatchingCutoffExceeded, PotentialEdge, SampledGraph,
                      matching_value, matching_values_over_subsets,
                      max_cardinality_matching, max_weight_matching_bipartite,
                      max_weight_matching_general, sample)
from matchgap.gallery import gen_random_point

from conftest import brute_matching_value, cycle_instance, path_instance


def realized_all(inst):
    return SampledGraph(inst, np.ones(inst.num_edges, dtype=bool))


class TestBipartite:
    def test_single_edge(self):
        inst = Instance("bipartite", 1, (PotentialEdge(0, 0, 1.0, 5.0),))
        m, value, cover = max_weight_matching_bipartite(realized_all(inst))
        assert value == 5.0
        assert m.edges == (0,)
        assert cover.y[0] + cover.y[1] == pytest.approx(5.0)
        assert cover.norm == pytest.approx(5.0)

    def test_two_edge_path(self):
        # u0-v0, u1-v0: one vertex in the middle, value 1
        inst = Instance("bipartite", 2, (PotentialEdge(0, 0, 1.0, 1.0),
                                         PotentialEdge(1, 0, 1.0, 1.0)))
        _, value, cover = max_weight_matching_bipartite(realized_all(inst))
        assert value == pytest.approx(1.0)
        assert cover.norm == pytest.approx(1.0)

    def test_weighted_path_1_3_1(self):
        # brute force over matchings gives max(3, 1 + 1) = 3
        inst = path_instance([1.0, 3.0, 1.0])
        g = realized_all(inst)
        assert brute_matching_value(inst, g.realized) == 3.0
        _, value, _ = max_weight_matching_bipartite(g)
        assert value == pytest.approx(3.0)

    def test_non_bipartite_rejected(self):
        inst = cycle_instance(3)
        with pytest.raises(TypeError):
            max_weight_matching_bipartite(realized_all(inst))

    def test_cover_zero_on_isolated_and_exposed(self):
        inst = Instance("bipartite", 3, (PotentialEdge(0, 0, 1.0, 2.0),
                                         PotentialEdge(1, 0, 1.0, 1.0)))
        g = realized_all(inst)
        _, value, cover = max_weight_matching_bipartite(g)
        assert value == pytest.approx(2.0)
        deg = g.degrees
        assert np.all(cover.y[deg == 0] == 0.0)

    @pytest.mark.parametrize("seed", range(40))
    def test_duality_and_feasibility_random(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 5))
        edges = [PotentialEdge(u, v, 1.0, float(rng.random() * 3))
                 for u, v in itertools.product(range(n), range(n))
                 if rng.random() < 0.5]
        if not edges:
            return
        inst = Instance("bipartite", n, tuple(edges))
        realized = rng.random(len(edges)) < 0.7
        g = SampledGraph(inst, realized)
        _, value, cover = max_weight_matching_bipartite(g)
        assert value == pytest.approx(brute_matching_value(inst, realized), abs=1e-9)
        assert cover.norm == pytest.approx(value, abs=1e-9)
        assert cover.y.min() >= -1e-12
        for j in g.edge_indices:
            e = inst.edges[j]
            assert cover.y[e.u] + cover.y[inst.n + e.v] >= e.w - 1e-9


class TestGeneral:
    def test_triangle(self):
        assert max_weight_matching_general(realized_all(cycle_instance(3))) == 1.0

    def test_five_cycle(self):
        inst = cycle_instance(5)
        g = realized_all(inst)
        assert brute_matching_value(inst, g.realized) == 2.0
        assert max_weight_matching_general(g) == pytest.approx(2.0)

    def test_empty(self):
        inst = Instance("general", 4, ())
        assert max_weight_matching_general(SampledGraph(inst, np.zeros(0, bool))) == 0.0

    @pytest.mark.parametrize("seed", range(40))
    def test_random_vs_brute(self, seed):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(2, 7))
        edges = [PotentialEdge(u, v, 1.0, float(rng.random() * 2))
                 for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < 0.6]
        if not edges:
            return
        inst = Instance("general", n, tuple(edges))
        realized = rng.random(len(edges)) < 0.7
        g = SampledGraph(inst, realized)
        assert max_weight_matching_general(g) == pytest.approx(
            brute_matching_value(inst, realized), abs=1e-9)

    def test_agrees_with_bipartite_solver(self):
        for seed in range(20):
            inst = gen_random_point(4, 0.6, 500 + seed, "bipartite")
            if inst.num_edges == 0:
                continue
            g = sample(inst, 3, seed)
            _, value, _ = max_weight_matching_bipartite(g)
            assert max_weight_matching_general(g) == pytest.approx(value, abs=1e-9)

    def test_agrees_with_networkx_blossom(self):
        nx = pytest.importorskip("networkx")
        for seed in range(15):
            rng = np.random.default_rng(900 + seed)
            n = int(rng.integers(3, 9))
            pairs = [(u, v) for u, v in itertools.combinations(range(n), 2)
                     if rng.random() < 0.5]
            if not pairs:
                continue
            weights = {p: float(rng.integers(1, 20)) for p in pairs}
            inst = Instance("general", n, tuple(
                PotentialEdge(u, v, 1.0, weights[(u, v)]) for u, v in pairs))
            G = nx.Graph()
            G.add_nodes_from(range(n))
            for (u, v), w in weights.items():
                G.add_edge(u, v, weight=w)
            mate = nx.max_weight_matching(G)
            nx_value = sum(weights[(min(a, b), max(a, b))] for a, b in mate)
            assert max_weight_matching_general(realized_all(inst)) == pytest.approx(
                nx_value, abs=1e-9)

    def test_cutoff_error(self):
        # 30 disjoint edges: 60 vertices, beyond both cutoffs
        edges = tuple(PotentialEdge(2 * i, 2 * i + 1, 1.0, 1.0) for i in range(30))
        inst = Instance("general", 60, edges)
        with pytest.raises(MatchingCutoffExceeded):
            max_weight_matching_general(realized_all(inst))

    def test_edge_branch_path(self):
        # 22 realized edges over 44 vertices exercises branch-and-bound
        rng = np.random.default_rng(4)
        edges = tuple(PotentialEdge(2 * i, 2 * i + 1, 1.0, float(rng.random()))
                      for i in range(22))
        inst = Instance("general", 44, edges)
        value = max_weight_matching_general(realized_all(inst))
        assert value == pytest.approx(sum(e.w for e in edges), abs=1e-9)


class TestCardinality:
    def test_disjoint_edges(self):
        edges = tuple(PotentialEdge(i, i, 1.0, 1.0) for i in range(4))
        inst = Instance("bipartite", 4, edges)
        assert max_cardinality_matching(realized_all(inst)) == 4

    def test_star(self):
        edges = tuple(PotentialEdge(0, v, 1.0, 1.0) for v in range(4))
        inst = Instance("bipartite", 4, edges)
        assert max_cardinality_matching(realized_all(inst)) == 1

    @pytest.mark.parametrize("seed", range(20))
    def test_random_4x4_vs_brute(self, seed):
        rng = np.random.default_rng(300 + seed)
        edges = [PotentialEdge(u, v, 1.0, 1.0)
                 for u, v in itertools.product(range(4), range(4))
                 if rng.random() < 0.4]
        if not edges:
            return
        inst = Instance("bipartite", 4, tuple(edges))
        g = realized_all(inst)
        assert max_cardinality_matching(g) == int(brute_matching_value(g.instance, g.realized))

    def test_general_triangle(self):
        assert max_cardinality_matching(realized_all(cycle_instance(3))) == 1

    @pytest.mark.parametrize("start", ["left", "right"])
    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_long_path_beyond_recursion_limit(self, order, start):
        # a path through 1,500 vertices a side; in one edge order per start
        # side the greedy pass leaves a 1,500-edge augmenting path
        n = 1500
        edges = []
        for i in range(n):
            edges.append(PotentialEdge(i, i, 1.0, 1.0))
            if i + 1 < n:
                edges.append(PotentialEdge(i, i + 1, 1.0, 1.0) if start == "right"
                             else PotentialEdge(i + 1, i, 1.0, 1.0))
        if order == "reversed":
            edges.reverse()
        g = realized_all(Instance("bipartite", n, tuple(edges)))
        assert max_cardinality_matching(g) == n
        assert matching_value(g) == float(n)


class TestMonotonicity:
    @pytest.mark.parametrize("seed", range(10))
    def test_adding_edge_never_decreases(self, seed):
        inst = gen_random_point(4, 0.7, 700 + seed, "general")
        if inst.num_edges < 2:
            return
        g = sample(inst, 1, seed)
        base = max_weight_matching_general(g)
        for j in range(inst.num_edges):
            plus = np.array(g.realized)
            plus[j] = True
            minus = np.array(g.realized)
            minus[j] = False
            assert (max_weight_matching_general(SampledGraph(inst, plus))
                    >= base - 1e-12)
            assert (max_weight_matching_general(SampledGraph(inst, minus))
                    <= base + 1e-12)


class TestSubsetSweep:
    @pytest.mark.parametrize("kind", ["bipartite", "general"])
    def test_against_direct_solver(self, kind):
        inst = gen_random_point(3, 0.7, 31, kind)
        if inst.num_edges == 0:
            return
        nus = matching_values_over_subsets(inst)
        bits = 1 << np.arange(inst.num_edges)
        for mask in range(1 << inst.num_edges):
            g = SampledGraph(inst, (mask & bits) != 0)
            assert nus[mask] == pytest.approx(
                max_weight_matching_general(g), abs=1e-9)

    def test_matching_value_dispatch(self):
        inst = gen_random_point(3, 0.8, 77, "bipartite")
        if inst.num_edges == 0:
            return
        g = sample(inst, 2, 0)
        _, value, _ = max_weight_matching_bipartite(g)
        assert matching_value(g) == pytest.approx(value, abs=1e-12)
