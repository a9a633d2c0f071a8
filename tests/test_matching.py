import itertools
import json
import time
from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from matchgap import (FractionalVertexCover, Instance, Matching, MatchingCutoffExceeded,
                      PotentialEdge, SampledGraph, matching_value, matching_values_over_subsets,
                      max_weight_matching_bipartite, max_weight_matching_general, sample)
from matchgap import matching, phi_curve, sampling
from matchgap.gallery import gen_random_point
from matchgap.matching import value_solver
from matchgap.sampling import dense_block, realization_block

from conftest import (batch_of, bits, brute_matching_value, check_record, cycle_instance,
                      flat_block, path_instance, reference_primal_dual, solve_batches)


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


class TestVertexDpBatch:
    """The subset sweep as the vertex DP of a batch of subgraphs: with the
    edges in descending order of their lower endpoint, as
    `kernels.local_derivative_sides` sweeps them, every entry of
    `_subset_values` is the bits of the per-graph search."""

    @staticmethod
    def swept(ends, w):
        """The sweep order and the subset values of edges `ends`; entry
        ``mask`` is the subgraph of the edges order[j] for its set bits j."""
        order = np.argsort(-ends.min(axis=1), kind="stable")
        return order, matching._subset_values(ends[order][None], w[order][None])[0]

    @staticmethod
    def subgraph(order, mask):
        return np.sort(order[(mask >> np.arange(len(order))) & 1 == 1])

    @pytest.mark.parametrize("seed", range(48))
    def test_twin_equals_the_per_graph_search(self, seed):
        # 0-7 vertices and up to 20 edges, in random order and either pair
        # order; zero, signed zero, repeated and random weights; the whole
        # graph and up to 8 random subgraphs of it
        rng = np.random.default_rng(3_000 + seed)
        nv = seed % 8
        pairs = [p if rng.random() < 0.5 else p[::-1]
                 for p in itertools.combinations(range(nv), 2) if rng.random() < 0.8][:20]
        rng.shuffle(pairs)
        ends = np.array(pairs, dtype=np.int64).reshape(-1, 2)
        palette = [0.0, -0.0, 0.1, 0.2, 0.3, 1.0 / 3.0, float(rng.random())]
        w = rng.choice(palette, size=len(ends))
        solve = matching._general_solver(
            Instance.from_arrays("general", nv, ends, np.full(len(ends), 0.1), w))
        order, values = self.swept(ends, w)
        graphs = 0 if seed % 6 == 0 else int(rng.integers(1, 9))
        for mask in [len(values) - 1, *rng.integers(0, len(values), graphs).tolist()]:
            assert bits(values[mask]) == bits(solve(self.subgraph(order, mask)))

    @pytest.mark.parametrize("n", [0, 1, 5, 7, 22])
    def test_subgraph_values_equal_the_solver(self, n):
        # 22 vertices is past GENERAL_VERTEX_CUTOFF, where the solver
        # branches over edges instead: the sweep keeps the vertex DP's bits
        rng = np.random.default_rng(4_000 + n)
        ends = ([(2 * i, 2 * i + 1) for i in range(11)] + [(0, 3), (5, 8)] if n == 22 else
                [p for p in itertools.combinations(range(n), 2) if rng.random() < 0.6])
        ends = np.array(ends, dtype=np.int64).reshape(-1, 2)
        w = rng.choice([0.0, 0.5, float(rng.random())], size=len(ends))
        order, values = self.swept(ends, w)
        masks = range(len(values)) if len(values) <= 1024 else rng.integers(0, len(values), 256)
        for mask in masks:
            sub = self.subgraph(order, int(mask))
            want = matching._nu_vertex_dp(n, [(*ends[j].tolist(), w[j]) for j in sub.tolist()])
            assert bits(values[mask]) == bits(want)


class TestCardinality:
    def test_disjoint_edges(self):
        edges = tuple(PotentialEdge(i, i, 1.0, 1.0) for i in range(4))
        inst = Instance("bipartite", 4, edges)
        assert matching_value(realized_all(inst)) == 4

    def test_star(self):
        edges = tuple(PotentialEdge(0, v, 1.0, 1.0) for v in range(4))
        inst = Instance("bipartite", 4, edges)
        assert matching_value(realized_all(inst)) == 1

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
        assert matching_value(g) == brute_matching_value(g.instance, g.realized)

    def test_general_triangle(self):
        assert matching_value(realized_all(cycle_instance(3))) == 1

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
        assert matching_value(g) == n


def bipartite_instance(n, pairs):
    return Instance("bipartite", n, tuple(PotentialEdge(u, v, 0.5, 1.0) for u, v in pairs))


def hopcroft_karp_value(inst, idx):
    """Maximum cardinality of the edges `idx` by networkx's Hopcroft-Karp."""
    nx = pytest.importorskip("networkx")
    g = nx.Graph()
    left = [("u", i) for i in range(inst.n)]
    g.add_nodes_from(left)
    g.add_nodes_from(("v", i) for i in range(inst.n))
    g.add_edges_from((("u", int(a)), ("v", int(b) - inst.n)) for a, b in inst.endpoints[idx])
    return len(nx.bipartite.hopcroft_karp_matching(g, top_nodes=left)) // 2


def solve_in_batches(inst, lists, batch):
    """The values of `lists` in batches of `batch` samples, all handed to
    one solver call (so weighted fallbacks pool across them)."""
    return np.concatenate(solve_batches(inst, [batch_of(lists[k:k + batch])
                                               for k in range(0, len(lists), batch)]))


def pooled_runs(monkeypatch):
    """The blocks (flat, rows) of the weighted fallback's lockstep runs."""
    runs = []
    real = matching._lockstep_values
    monkeypatch.setattr(matching, "_lockstep_values",
                        lambda arcs, n, flat, rows: runs.append((flat, rows))
                        or real(arcs, n, flat, rows))
    return runs


def run_lists(inst, runs):
    """The realized edge lists of the rows of `runs`, in order."""
    return [np.flatnonzero(row).tolist() for flat, rows in runs
            for row in dense_block(flat, rows, max(inst.num_edges, 1))]


def sample_lists(inst, seed, start, count):
    """Samples start..start+count-1 as their ascending realized edge indices."""
    return [np.flatnonzero(row) for row in realization_block(inst, seed, start, count)]


class TestPeeler:
    """The batched degree-1 peeler behind unweighted bipartite values,
    against Hopcroft-Karp (networkx) and the brute-force oracle."""

    @staticmethod
    def kuhn_sizes(monkeypatch):
        """Edge counts of the graphs handed on to augmenting paths."""
        sizes = []
        real = matching._kuhn_matching

        def spy(pairs):
            pairs = list(pairs)
            sizes.append(len(pairs))
            return real(pairs)

        monkeypatch.setattr(matching, "_kuhn_matching", spy)
        return sizes

    def check(self, inst, lists):
        """Every batching of `lists` against both oracles."""
        want = [hopcroft_karp_value(inst, idx) for idx in lists]
        for idx, value in zip(lists, want):
            if len(idx) <= 12:
                assert value == brute_matching_value(inst, np.isin(np.arange(inst.num_edges),
                                                                    idx))
        full = solve_in_batches(inst, lists, len(lists))
        assert full.dtype == np.float64 and full.tolist() == want
        for batch in (1, 7):
            assert solve_in_batches(inst, lists, batch).tobytes() == full.tobytes()

    @pytest.mark.parametrize("seed", range(12))
    def test_random_graphs(self, seed):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(2, 13))
        density = float(rng.uniform(1.0, 4.0)) / n
        pairs = [(u, v) for u in range(n) for v in range(n) if rng.random() < density]
        inst = bipartite_instance(n, pairs)
        lists = [np.flatnonzero(rng.random(len(pairs)) < rng.uniform(0.2, 1.0))
                 for _ in range(30)]
        self.check(inst, lists)

    @pytest.mark.parametrize("k", [2, 3, 6, 11])
    def test_even_cycle_goes_whole_to_augmenting_paths(self, monkeypatch, k):
        # u_i - v_i - u_(i+1): a cycle through k vertices a side, no leaf
        sizes = self.kuhn_sizes(monkeypatch)
        inst = bipartite_instance(k, [(i, i) for i in range(k)]
                                  + [((i + 1) % k, i) for i in range(k)])
        self.check(inst, [np.arange(inst.num_edges)])
        assert matching_value(realized_all(inst)) == k
        assert set(sizes) == {2 * k}

    def test_complete_3_3_goes_whole_to_augmenting_paths(self, monkeypatch):
        sizes = self.kuhn_sizes(monkeypatch)
        inst = bipartite_instance(3, itertools.product(range(3), range(3)))
        self.check(inst, [np.arange(9)])
        assert matching_value(realized_all(inst)) == 3
        assert set(sizes) == {9}

    def test_leaves_only(self, monkeypatch):
        # isolated edges, a star, a double star (two adjacent centres with
        # their own leaves) and an empty sample: peeling alone solves them
        sizes = self.kuhn_sizes(monkeypatch)
        inst = bipartite_instance(8, [(0, 0), (1, 1), (2, 2)]                # isolated
                                  + [(3, v) for v in range(3, 8)]            # star at u3
                                  + [(4, 3)] + [(u, 4) for u in (4, 5, 6)]   # u4-v4 centres
                                  + [(7, 4)])
        j = {tuple(e): k for k, e in enumerate(inst.endpoints.tolist())}
        isolated = [j[(0, 8)], j[(1, 9)], j[(2, 10)]]
        star = [j[(3, 8 + v)] for v in range(3, 8)]
        double = [j[(4, 11)], j[(4, 12)], j[(5, 12)], j[(6, 12)], j[(7, 12)]]
        lists = [np.array(sorted(s), dtype=np.int64)
                 for s in (isolated, star, double, [], isolated + star, [j[(3, 11)]])]
        self.check(inst, lists)
        assert solve_in_batches(inst, lists, len(lists)).tolist() == [3, 1, 2, 0, 4, 1]
        assert sizes == []

    def test_batches_mix_empty_and_nonempty(self):
        inst = gen_random_point(6, 0.8, 12, "bipartite", weighted=False)
        rng = np.random.default_rng(5)
        empty = np.zeros(0, dtype=np.int64)
        lists = [empty if k % 3 else np.flatnonzero(rng.random(inst.num_edges) < 0.5)
                 for k in range(20)] + [empty] * 3
        self.check(inst, lists)
        assert solve_batches(inst, [batch_of([])])[0].tolist() == []
        assert solve_batches(inst, [batch_of([empty, empty])])[0].tolist() == [0.0, 0.0]

    def test_no_vertices(self):
        inst = Instance("bipartite", 0, ())
        empty = batch_of([np.zeros(0, dtype=np.int64)] * 2)
        assert solve_batches(inst, [empty])[0].tolist() == [0.0, 0.0]
        assert phi_curve(inst, 2, "mc", samples=3)[:, 1].tolist() == [0.0, 0.0, 0.0]

    def test_path_of_20000_a_side_in_time(self):
        # peeling a path matches one edge per end a round, so alone it
        # would take 10,000 rounds (3.6 s); the share stop hands the path
        # to augmenting paths.  Bound fixed at 1 s before measuring.
        n = 20_000
        i = np.arange(n)
        ends = np.concatenate([np.stack([i, n + i], 1), np.stack([i[1:], n + i[:-1]], 1)])
        inst = Instance.from_arrays("bipartite", n, ends, np.ones(len(ends)), np.ones(len(ends)))
        g = realized_all(inst)
        t = time.perf_counter()
        assert matching_value(g) == n
        assert time.perf_counter() - t < 1.0


def primal_dual_value(inst, idx):
    """The per-sample reference's value on the realized edges `idx`."""
    return reference_primal_dual(inst, idx)[1]


class TestWeightedPeeler:
    """The batched weighted degree-1 peeler behind weighted bipartite
    values, with its fallback pooled into lockstep runs, bit for bit
    against the per-sample reference primal-dual: 70,000 random_point
    samples, 32,000 with tie-heavy weights, 6,800 subsets of the 2^-40 /
    2^-38 fixture graphs and a 1,500-a-side path.  The first 1,000
    samples of each case are also solved in batches of 1 and 7."""

    def check(self, inst, lists):
        want = np.array([primal_dual_value(inst, idx) for idx in lists])
        full = solve_in_batches(inst, lists, len(lists))
        assert full.dtype == np.float64
        assert full.tobytes() == want.tobytes()
        head = lists[:1000]
        for batch in (1, 7):
            assert solve_in_batches(inst, head, batch).tobytes() == want[:len(head)].tobytes()

    @pytest.mark.parametrize("n, density, count", [
        (6, 1.0, 50_000), (30, 1.0, 8_000), (50, 0.3, 6_000), (100, 0.1, 4_000),
        (200, 0.02, 2_000)])
    def test_random_point(self, n, density, count):
        inst = gen_random_point(n, density, n, "bipartite")
        self.check(inst, sample_lists(inst, 7, 0, count))

    @pytest.mark.parametrize("weights", [(0.1, 0.2, 0.3), (0.25, 0.5, 1.0), (0.0, 1.0),
                                         (1e-13, 0.5, 1.0)])
    def test_tie_heavy_weights(self, weights):
        # near-ties the margin must send to the primal-dual: 0.3 - 0.1 - 0.2
        # is 5.6e-17, not 0, and weights near 0 fall under its tolerance
        base = gen_random_point(12, 0.5, 3, "bipartite")
        w = np.random.default_rng(1).choice(weights, base.num_edges)
        inst = Instance.from_arrays("bipartite", base.n, base.endpoints, base.x, w)
        self.check(inst, sample_lists(inst, 11, 0, 8_000))

    @pytest.mark.parametrize("family", ["tiny_2^-40", "tiny_2^-38"])
    def test_fixture_graphs_below_tolerance(self, family):
        fixture = Path(__file__).with_name("solver_fixture.json")
        cases = [c for c in map(json.loads, fixture.read_text().splitlines())
                 if c["id"].startswith(family + "-")]
        assert len(cases) == 34
        rng = np.random.default_rng(2)
        for case in cases:
            inst = Instance("bipartite", case["n"],
                            tuple(PotentialEdge(u, v, 0.5, w) for u, v, w in case["edges"]))
            realized = np.array(sorted(case["realized"]), dtype=np.int64)
            lists = [realized] + [realized[rng.random(len(realized)) < 0.6] for _ in range(99)]
            self.check(inst, lists)

    def test_path_of_1500_a_side(self, monkeypatch):
        # peeling takes one edge per end a round, so the share stop hands
        # the path to the lockstep after one round.  Bound fixed at 1 s
        # before measuring.
        n = 1500
        i = np.arange(n)
        ends = np.concatenate([np.stack([i, n + i], 1), np.stack([i[1:], n + i[:-1]], 1)])
        w = np.random.default_rng(3).random(len(ends))
        inst = Instance.from_arrays("bipartite", n, ends, np.ones(len(ends)), w)
        runs = pooled_runs(monkeypatch)
        t = time.perf_counter()
        solve_batches(inst, [batch_of([np.arange(len(ends))])])
        assert time.perf_counter() - t < 1.0
        assert [(len(flat), rows) for flat, rows in runs] == [(len(ends), 1)]
        monkeypatch.undo()
        self.check(inst, [np.arange(len(ends))])

    def test_only_undecided_samples_reach_the_primal_dual(self, monkeypatch):
        edges = [(0, 0, 0.9), (0, 1, 0.5), (1, 1, 0.7),                    # a path
                 (2, 2, 0.6), (3, 2, 0.5), (3, 3, 0.6), (2, 3, 0.5),       # a 4-cycle
                 (4, 4, 0.0),                                              # weight 0
                 (5, 5, 0.4), (6, 5, 0.4),                                 # two equal leaves
                 (7, 6, 0.5), (7, 7, 0.5), (8, 7, 0.8), (8, 8, 0.3)]       # a shift to 0
        inst = Instance("bipartite", 9, tuple(PotentialEdge(u, v, 0.5, w) for u, v, w in edges))
        path, cycle, zero, tie, shift = (np.arange(0, 3), np.arange(3, 7), np.arange(7, 8),
                                         np.arange(8, 10), np.arange(10, 14))
        lists = [path, cycle, zero, path, tie, shift, np.concatenate([path, cycle]),
                 np.zeros(0, dtype=np.int64), np.concatenate([path, shift[-1:]])]
        runs = pooled_runs(monkeypatch)
        got, = solve_batches(inst, [batch_of(lists)])
        assert len(runs) == 1
        assert run_lists(inst, runs) == [lists[k].tolist() for k in (1, 2, 4, 5, 6)]
        monkeypatch.undo()
        assert got.tolist() == [primal_dual_value(inst, idx) for idx in lists]
        assert got[[0, 3, 8]].tolist() == [0.9 + 0.7, 0.9 + 0.7, 0.9 + 0.7 + 0.3]

    def test_exact_ties_fall_back(self):
        # two and three equal heaviest leaves at a left centre (u0, u1) and at
        # a right centre (v6, v7): whichever is kept, the sample is undecided
        edges = [(0, 0, 0.5), (0, 1, 0.5), (0, 2, 0.2),                   # two, and a lighter
                 (1, 3, 0.7), (1, 4, 0.7), (1, 5, 0.7),                   # three
                 (2, 6, 0.3), (3, 6, 0.3),                                # two at v6
                 (4, 7, 0.9), (5, 7, 0.9), (6, 7, 0.9),                   # three at v7
                 (7, 0, 0.4),                                             # a lone edge
                 (8, 8, 0.9), (9, 8, 0.5), (9, 9, 0.7)]                   # a path
        inst = Instance("bipartite", 10, tuple(PotentialEdge(u, v, 0.5, w) for u, v, w in edges))
        lists = [[0, 1], [0, 1, 2], [3, 4, 5], [6, 7], [8, 9, 10], [12, 13, 14],
                 [0, 1, 12, 13, 14], [11], [8, 9, 10, 11]]
        lists = [np.array(idx, dtype=np.int64) for idx in lists]
        _, fallback = matching._peel(inst, matching._peel_margin(inst), *batch_of(lists))
        assert fallback.tolist() == [True] * 5 + [False, True, False, True]
        self.check(inst, lists)

    def test_leaf_just_inside_the_margin_falls_back(self):
        # a second leaf d / 2 below the heaviest is undecided, one 2 d below
        # is not (d = _peel_margin), at a left centre (u0) and a right one (v3)
        d = matching._peel_margin(Instance("bipartite", 4, (PotentialEdge(0, 0, 0.5, 0.5),)))
        inside, outside = 0.5 - d / 2, 0.5 - 2 * d
        edges = [(0, 0, 0.5), (0, 1, inside), (0, 2, outside),
                 (1, 3, 0.5), (2, 3, inside), (3, 3, outside)]
        inst = Instance("bipartite", 4, tuple(PotentialEdge(u, v, 0.5, w) for u, v, w in edges))
        margin = matching._peel_margin(inst)
        assert margin == d and 0.5 - inside <= d < 0.5 - outside
        lists = [[0, 1], [0, 2], [3, 4], [3, 5], [0, 1, 2], [0, 3, 5], [1, 3, 4], [2, 5]]
        lists = [np.array(idx, dtype=np.int64) for idx in lists]
        _, fallback = matching._peel(inst, margin, *batch_of(lists))
        assert fallback.tolist() == [True, False, True, False, True, False, True, False]
        self.check(inst, lists)

    def test_sample_within_the_margin_among_decided_ones(self):
        # a sample with a weight-0 edge, within the margin, falls back though
        # its other edges peel in round 1 beside the decided samples', and
        # the others keep the mask and values they have alone
        edges = [(0, 0, 0.9), (0, 1, 0.5), (1, 1, 0.7),                    # a path
                 (2, 2, 0.6), (3, 2, 0.2), (3, 3, 0.8),                    # a shift
                 (4, 4, 0.0), (5, 4, 0.3), (5, 5, 0.4), (6, 6, 0.5),       # weight 0
                 (7, 7, 0.25)]                                             # a lone edge
        inst = Instance("bipartite", 8, tuple(PotentialEdge(u, v, 0.5, w) for u, v, w in edges))
        margin = matching._peel_margin(inst)
        decided = [[0, 1, 2], [3, 4, 5], [0, 1, 2, 3, 4, 5, 10], [10], [1, 3, 5, 9]]
        lists = [np.array(idx, dtype=np.int64) for idx in decided]
        zero = np.array([6, 7, 8, 9, 10], dtype=np.int64)
        alone, alone_fell = matching._peel(inst, margin, *batch_of(lists))
        assert not alone_fell.any()
        for at in (0, 2, 5):
            mixed = lists[:at] + [zero] + lists[at:]
            values, fell = matching._peel(inst, margin, *batch_of(mixed))
            assert fell.tolist() == [k == at for k in range(len(mixed))]
            assert bits(np.delete(values, at)) == bits(alone)
            assert bits(alone) == bits([primal_dual_value(inst, idx) for idx in lists])
        self.check(inst, lists[:2] + [zero] + lists[2:])

    def test_batches_without_fallback_run_one_empty_lockstep(self, monkeypatch):
        # no sample of any batch falls back: the one pool holds no row, and
        # its lockstep run of 0 rows fills nothing
        edges = [(0, 0, 0.9), (0, 1, 0.5), (1, 1, 0.7), (2, 2, 0.6), (3, 2, 0.2), (3, 3, 0.8)]
        inst = Instance("bipartite", 4, tuple(PotentialEdge(u, v, 0.5, w) for u, v, w in edges))
        lists = [np.array(idx, dtype=np.int64) for idx in
                 ([0, 1, 2], [3, 4, 5], [0, 2, 3, 5], [], [1, 4], [0, 1, 2, 3, 4, 5], [2])]
        runs = pooled_runs(monkeypatch)
        got = solve_batches(inst, [batch_of(lists[:3]), batch_of(lists[3:4]), batch_of(lists[4:])])
        assert [(len(flat), rows) for flat, rows in runs] == [(0, 0)]
        monkeypatch.undo()
        want = [primal_dual_value(inst, idx) for idx in lists]
        assert bits(np.concatenate(got)) == bits(want)
        assert np.concatenate(got).tolist() == [1.6, 1.4, 3.0, 0.0, 0.7, 3.0, 0.7]

    def test_few_samples_fall_back(self, monkeypatch):
        # the speed-up rests on peeling deciding most samples; 2.5% fell
        # back when this was written
        inst = gen_random_point(100, 0.1, 3, "bipartite")
        runs = pooled_runs(monkeypatch)
        solve_in_batches(inst, sample_lists(inst, 3, 0, 2_000), 327)
        assert sum(rows for _, rows in runs) < 200

    def test_phi_curve_mc_matches_per_sample_values(self):
        # the solver is built from inst and applied to scaled copies, so it
        # may read endpoints and weights but never probabilities
        inst = gen_random_point(40, 0.2, 8, "bipartite")
        samples, grid = 700, 4
        got = phi_curve(inst, grid, "mc", samples=samples, seed=5)
        want = np.empty_like(got)
        want[:, 0] = np.linspace(0.0, 1.0, grid + 1)
        want[0, 1] = 0.0
        for i in range(1, grid + 1):
            scaled = inst.scale_probabilities(float(want[i, 0]))
            lists = sample_lists(scaled, 5, i * samples, samples)
            want[i, 1] = float(np.array([primal_dual_value(scaled, idx) for idx in lists]).mean())
        assert got.tobytes() == want.tobytes()

    def test_fallback_pools_across_batch_edges(self, monkeypatch):
        # two fifths of the weights tie at 0.5, so in batches of 6 samples
        # (blocks of 1) a few samples fall back, and a lockstep run pools
        # the fallbacks of consecutive batches until it holds at least 6.
        # Over samples 0..59 the first runs close mid-range; over 60..71
        # one run holds every fallback of the range.  Values are the
        # reference's bits either way.
        base = gen_random_point(12, 0.5, 3, "bipartite")
        rng = np.random.default_rng(1)
        w = rng.random(base.num_edges)
        w[rng.random(base.num_edges) < 0.4] = 0.5
        inst = Instance.from_arrays("bipartite", base.n, base.endpoints, base.x, w)
        monkeypatch.setattr(sampling, "BLOCK_BYTES", 6 * 8 * inst.total_vertices)
        assert sampling.batch_rows(inst) == 6 and sampling.block_rows(inst, 72) == 1
        runs = pooled_runs(monkeypatch)
        fell = []  # per batch, its fallback mask
        real = matching._peel
        monkeypatch.setattr(matching, "_peel",
                            lambda *a: (lambda out: fell.append(out[1]) or out)(real(*a)))
        solve = value_solver(inst)
        for first, stop in ((0, 60), (60, 72)):
            runs.clear()
            fell.clear()
            got = np.concatenate(list(sampling._solved(inst, solve, 11, 0, first, stop)))[:, 0]
            lists = sample_lists(inst, 11, first, stop - first)
            want = np.array([primal_dual_value(inst, idx) for idx in lists])
            assert got.tobytes() == want.tobytes()
            counts = [int(f.sum()) for f in fell]
            assert [len(f) for f in fell] == [6] * ((stop - first) // 6) and max(counts) < 6
            pools, held = [], 0  # `block_groups` over the batches' fallback counts
            for c in counts:
                held += c
                if held >= 6:
                    pools.append(held)
                    held = 0
            pools += [held] if held else []
            assert [rows for _, rows in runs] == pools
            fallback = np.flatnonzero(np.concatenate(fell))
            assert run_lists(inst, runs) == [lists[k].tolist() for k in fallback]
            if first == 0:
                assert len(runs) > 2
            else:
                assert len(runs) == 1 and 0 < runs[0][1] < 6
        assert bits(sampling.sample_values(inst, solve, 11, 0, 72)) == bits(
            [primal_dual_value(inst, idx) for idx in sample_lists(inst, 11, 0, 72)])


class TestLeftSums:
    """`matching._left_sums` against 0.0 + w + ... added in Python in
    left-vertex order, row by row."""

    @pytest.mark.parametrize("rows, n", [(1, 1), (1, 9), (2, 5), (3, 6), (7, 3), (330, 100)])
    def test_sequential_left_order(self, rows, n):
        gen = np.random.default_rng(rows * 1000 + n)
        row, left = [], []
        for k in range(rows):
            # row 0 matches every left vertex, row 1 none, the rest some
            take = (np.arange(n) if k == 0 else np.empty(0, dtype=np.int64) if k == 1
                    else np.flatnonzero(gen.random(n) < 0.6))
            row += [k] * len(take)
            left += gen.permutation(take).tolist()  # in no particular order
        w = gen.random(len(row)) * 10.0 ** gen.integers(-20, 20, len(row))
        w[gen.random(len(w)) < 0.2] = -0.0
        by_row = [[] for _ in range(rows)]
        for r, u, x in zip(row, left, w.tolist()):
            by_row[r].append((u, x))
        want = []
        for pairs in by_row:
            acc = 0.0
            for _, x in sorted(pairs):
                acc = acc + x
            want.append(acc)
        got = matching._left_sums(np.array(row, dtype=np.int64), np.array(left, dtype=np.int64),
                                  w, rows, n)
        assert got.shape == (rows,) and bits(got) == bits(want)
        if rows > 1:
            assert bits(got[1]) == bits(0.0)

    def test_one_row_values_as_recorded(self):
        # a one-row table's single column sums by `sampling.column_sums`' cumsum
        fixture = Path(__file__).with_name("solver_fixture.json")
        cases = [json.loads(line) for line in fixture.read_text().splitlines()]
        assert len(cases) == 204
        for case in cases:
            inst = Instance("bipartite", case["n"],
                            tuple(PotentialEdge(u, v, 0.5, w) for u, v, w in case["edges"]))
            realized = np.zeros(inst.num_edges, dtype=bool)
            realized[case["realized"]] = True
            _, value, _ = max_weight_matching_bipartite(SampledGraph(inst, realized))
            assert repr(value) == case["value"], case["id"]


class TestCoverSolver:
    def test_each_block_is_one_lockstep_run(self, monkeypatch):
        # nonempty rows of any size, some over 48 edges (the former size
        # crossover), and empty ones go through one lockstep run a block,
        # in a block of 258 rows or in blocks of 64, 7, 2 or 1: every
        # row's cover has the same bits in each, the reference's
        inst = gen_random_point(12, 0.6, 5, "bipartite")
        m = inst.num_edges
        counts = [0, *(1 + k % m for k in range(253)), 49, 0, m, m - 1]
        rng = np.random.default_rng(3)
        block = np.zeros((len(counts), m), dtype=bool)
        for row, c in zip(block, counts):
            row[rng.choice(m, c, replace=False)] = True
        runs = []
        real = matching._lockstep
        monkeypatch.setattr(matching, "_lockstep",
                            lambda *a: runs.append(a[4]) or real(*a))
        solve = matching.cover_solver(inst)
        covers = solve(*flat_block(block))
        sizes = [len(block)]
        for size in (64, 7, 2, 1):
            for k in range(0, len(block), size):
                part = solve(*flat_block(block[k:k + size]))
                assert part.tobytes() == covers[k:k + size].tobytes()
                sizes.append(len(part))
        assert max(counts) > 48 and runs == sizes
        for row, cover in zip(block, covers):
            assert cover.tobytes() == reference_primal_dual(inst, np.flatnonzero(row))[2].tobytes()


class TestLockstepRootPick:
    # rows of one lockstep block by hand, each a list of (u, v, w) in edge order
    ROWS = [
        # roots 0 and 1 are matched at once; 2's first tight arc reaches r1,
        # 1's end, so 2 grows a tree; after that phase 3 takes the next pick
        # first and grows (r0 is 0's), while 4's end r4 is free
        [(0, 0, 1.0), (1, 1, 1.0), (2, 1, 1.0), (3, 0, 1.0), (4, 4, 1.0)],
        # three roots' first tight arcs reach the free r0 in one pick
        [(0, 0, 1.0), (1, 0, 1.0), (1, 2, 0.5), (2, 0, 1.0), (2, 3, 0.25)],
        [],
        # the same with weights: 0, 1 and 2 first reach r2; 3's end r4 is
        # free while 1 grows
        [(0, 2, 2.0), (1, 2, 2.0), (1, 0, 1.5), (2, 2, 2.0), (2, 4, 0.5), (3, 4, 1.0)],
    ]

    def test_earliest_root_rule_matches_the_primal_dual(self):
        n = 5
        arcs = [(k, u, v, w) for k, edges in enumerate(self.ROWS)
                for u, v, w in sorted(edges, key=lambda e: e[0])]
        row, left, right = (np.array([a[i] for a in arcs], dtype=np.int64) for i in range(3))
        wt = np.array([a[3] for a in arcs])
        y, mate = matching._lockstep(row, left, right, wt, len(self.ROWS), n)
        covers = np.where(y > 0.0, y, 0.0)
        for k, (edges, cover) in enumerate(zip(self.ROWS, covers)):
            inst = Instance("bipartite", n, tuple(PotentialEdge(u, v, 1.0, w)
                                                  for u, v, w in edges))
            matched, _, want = reference_primal_dual(inst, np.arange(len(edges)))
            assert cover.tobytes() == want.tobytes()
            pairs = {(u, int(mate[k * n + u]) - k * n) for u in range(n) if mate[k * n + u] >= 0}
            assert pairs == {tuple(edges[j][:2]) for j in matched}
        # row 0 by hand: each phase drives its tree's potentials to zero
        # and raises the end it shares, r1 and then r0
        assert covers[0].tolist() == [0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0]


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


@pytest.mark.parametrize("make, text, by_value, frozen", [
    pytest.param(lambda: Matching((0, 2), 1.5), "Matching(edges=(0, 2), value=1.5)", True,
                 AttributeError, id="Matching"),
    pytest.param(lambda: FractionalVertexCover([0.5, 0]),
                 "FractionalVertexCover(y=array([0.5, 0. ]))", False, FrozenInstanceError,
                 id="FractionalVertexCover"),
])
def test_record(make, text, by_value, frozen):
    check_record(make, text, by_value, frozen)
