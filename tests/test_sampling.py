import itertools
import math
import os
import re
import threading
import time

import numpy as np
import pytest

from matchgap import (Instance, MatchingCutoffExceeded, PotentialEdge, SupportTooLarge,
                      mc_ratio, phi_curve, sample, support_probabilities)
from matchgap import sampling
from matchgap.gallery import gen_random_point
from matchgap.rng import uniform_block
from matchgap.sampling import (block_degrees, realization_block, realization_blocks,
                               realized_edge_lists)


def single_edge(x):
    return Instance("bipartite", 1, (PotentialEdge(0, 0, x, 1.0),))


class TestSample:
    def test_certain_edges(self):
        inst = Instance("bipartite", 2,
                        (PotentialEdge(0, 0, 1.0, 1.0), PotentialEdge(1, 1, 1.0, 1.0)))
        for seed in (0, 1, 99):
            assert sample(inst, seed, 0).realized.all()

    def test_impossible_edges(self):
        inst = Instance("bipartite", 2,
                        (PotentialEdge(0, 0, 0.0, 1.0), PotentialEdge(1, 1, 0.0, 1.0)))
        for index in range(5):
            assert not sample(inst, 3, index).realized.any()

    def test_reproducible(self):
        inst = gen_random_point(4, 0.7, 5, "bipartite")
        a = sample(inst, 11, 17)
        b = sample(inst, 11, 17)
        assert np.array_equal(a.realized, b.realized)

    def test_empirical_frequency_binomial_band(self):
        # one edge with x = 0.3 over 1e6 samples: 3 sigma = 0.0014
        inst = single_edge(0.3)
        block = realization_block(inst, 42, 0, 1_000_000)
        freq = block[:, 0].mean()
        sigma = math.sqrt(0.3 * 0.7 / 1_000_000)
        assert abs(freq - 0.3) < 3 * sigma

    def test_block_rows_equal_individual_samples(self):
        inst = gen_random_point(3, 0.8, 2, "general")
        block = realization_block(inst, 9, 10, 6)
        for k in range(6):
            assert np.array_equal(block[k], sample(inst, 9, 10 + k).realized)

    def test_degrees(self):
        inst = Instance("general", 3, (PotentialEdge(0, 1, 1.0, 1.0),
                                       PotentialEdge(1, 2, 1.0, 1.0)))
        g = sample(inst, 0, 0)
        assert g.degrees.tolist() == [1, 2, 1]


class TestRealizationBlocks:
    """Block rows against the float reference ``uniform_block(...) < x``."""

    X_VALUES = (0.0, 1.0, 0.3, 1.0 / 3.0)

    @staticmethod
    def rows(inst, seed, start, count):
        return np.concatenate([b.copy() for b in realization_blocks(inst, seed, start, count)])

    @pytest.mark.parametrize("x", X_VALUES)
    def test_one_edge_rows_across_blocks(self, x):
        # a block holds 65,536 one-edge rows; start is not a multiple of that
        inst = single_edge(x)
        start, count = 70_001, 140_000
        want = uniform_block(5, np.arange(start, start + count), 1) < x
        assert np.array_equal(self.rows(inst, 5, start, count), want)

    @pytest.mark.parametrize("rows", [None, 2])
    def test_wide_rows(self, monkeypatch, rows):
        # 40,000 edges: one row per block by default, else two rows a block
        n = 200
        edges = tuple(PotentialEdge(u, v, self.X_VALUES[(u + v) % 4])
                      for u in range(n) for v in range(n))
        inst = Instance("bipartite", n, edges)
        if rows is not None:
            monkeypatch.setattr(sampling, "BLOCK_BYTES", rows * 8 * inst.num_edges)
        start, count = 3, 5
        want = uniform_block(7, np.arange(start, start + count), inst.num_edges) < inst.x
        assert np.array_equal(self.rows(inst, 7, start, count), want)

    def test_zero_count_yields_nothing(self):
        assert list(realization_blocks(single_edge(0.5), 1, 4, 0)) == []

    @pytest.mark.parametrize("rows", [1, 7])
    def test_realized_edge_lists_across_blocks(self, monkeypatch, rows):
        # one array per sample, equal to that sample's edge indices, also
        # for samples with no realized edge and across block edges
        inst = gen_random_point(4, 0.6, 8, "bipartite")
        monkeypatch.setattr(sampling, "BLOCK_BYTES", rows * 8 * inst.num_edges)
        lists = [idx.tolist() for idx in realized_edge_lists(inst, 3, 11, 40)]
        assert len(lists) == 40 and [] in lists
        for k, idx in enumerate(lists):
            assert idx == sample(inst, 3, 11 + k).edge_indices.tolist()

    def test_block_degrees(self):
        inst = gen_random_point(4, 0.6, 8, "general")
        block = realization_block(inst, 2, 0, 9)
        deg = block_degrees(inst, block)
        for k in range(9):
            want = np.zeros(inst.total_vertices, dtype=np.int64)
            for j in np.nonzero(block[k])[0]:
                want[inst.endpoints[j]] += 1
            assert np.array_equal(deg[k], want)


class TestSampleValuesSplit:
    """`sampling.sample_values` splits a run by sample range over forked
    workers; the tests force the split with ``SPLIT_MIN_WORK = 0`` and
    set the affinity mask to the worker count."""

    @pytest.fixture
    def forks(self, monkeypatch):
        """One entry per worker forked."""
        made = []
        real = os.fork
        monkeypatch.setattr(os, "fork", lambda: made.append(1) or real())
        return made

    @staticmethod
    def cpus(monkeypatch, k):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)))

    def test_same_bytes_at_any_worker_count(self, monkeypatch, forks, capfd):
        # Kuhn, primal-dual, exact search, and phi's per-grid-point runs;
        # 301 samples do not divide evenly into 2 or 3 ranges
        monkeypatch.setattr(sampling, "SPLIT_MIN_WORK", 0)
        insts = [gen_random_point(4, 0.7, 4, kind, weighted=weighted)
                 for kind, weighted in (("bipartite", False), ("bipartite", True),
                                        ("general", True))]
        outputs = []
        for workers in (1, 2, 3):
            self.cpus(monkeypatch, workers)
            outputs.append([repr(mc_ratio(inst, 301, seed=2, start_index=5).to_dict())
                            for inst in insts]
                           + [phi_curve(insts[1], 4, "mc", samples=101, seed=3).tobytes()])
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]
        assert len(forks) == (2 + 3) * (len(insts) + 4)  # phi at t = 0 draws nothing
        assert capfd.readouterr() == ("", "")

    def test_solver_exception_reaches_caller(self, monkeypatch, forks, capfd):
        # 40 disjoint edges of probability 0.9: every sample exceeds the
        # exact-search cutoffs, with a message that names its own vertex
        # and edge counts; the split must raise the first sample's
        inst = Instance("general", 80, tuple(PotentialEdge(2 * i, 2 * i + 1, 0.9)
                                             for i in range(40)))
        with pytest.raises(MatchingCutoffExceeded) as serial:
            mc_ratio(inst, 30, seed=1)
        monkeypatch.setattr(sampling, "SPLIT_MIN_WORK", 0)
        for workers in (2, 3):
            self.cpus(monkeypatch, workers)
            with pytest.raises(MatchingCutoffExceeded) as split:
                mc_ratio(inst, 30, seed=1)
            assert type(split.value) is type(serial.value)
            assert str(split.value) == str(serial.value)
        assert len(forks) == 2 + 3
        assert capfd.readouterr() == ("", "")

    def test_lowest_failing_range_wins(self, monkeypatch, forks):
        # both one-sample ranges fail, each naming its sample; the first
        # sample's failure arrives last but is the one the serial loop raises
        inst = Instance("bipartite", 20, tuple(PotentialEdge(i, i, 0.5) for i in range(20)))
        first, second = realized_edge_lists(inst, 4, 0, 2)
        assert first.tolist() != second.tolist()

        def solve(idx):
            if idx.tolist() == first.tolist():
                time.sleep(0.3)
            raise ValueError(f"sample {idx.tolist()}")

        monkeypatch.setattr(sampling, "SPLIT_MIN_WORK", 0)
        self.cpus(monkeypatch, 2)
        with pytest.raises(ValueError, match=re.escape(f"sample {first.tolist()}")):
            sampling.sample_values(inst, solve, 4, 0, 2)
        assert len(forks) == 2

    def test_dead_worker_is_reported(self, monkeypatch):
        # the solver ends any process but this one without a result
        inst = Instance("bipartite", 2, (PotentialEdge(0, 0, 0.5), PotentialEdge(1, 1, 0.5)))
        here = os.getpid()
        monkeypatch.setattr(sampling, "SPLIT_MIN_WORK", 0)
        self.cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="a sample worker died"):
            sampling.sample_values(inst, lambda idx: 0.0 if os.getpid() == here else os._exit(3),
                                   0, 0, 4)

    def test_serial_path(self, monkeypatch, forks):
        inst = gen_random_point(4, 0.7, 4, "bipartite")
        ref = repr(mc_ratio(inst, 200, seed=2).to_dict())
        self.cpus(monkeypatch, 2)
        assert repr(mc_ratio(inst, 200, seed=2).to_dict()) == ref  # too small
        monkeypatch.setattr(sampling, "SPLIT_MIN_WORK", 0)
        self.cpus(monkeypatch, 1)
        assert repr(mc_ratio(inst, 200, seed=2).to_dict()) == ref  # one CPU
        self.cpus(monkeypatch, 2)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert repr(mc_ratio(inst, 200, seed=2).to_dict()) == ref  # another thread
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        monkeypatch.delattr(os, "fork")
        assert repr(mc_ratio(inst, 200, seed=2).to_dict()) == ref  # no fork
        assert forks == []


class TestSupport:
    def test_one_edge_quarter(self):
        inst = single_edge(0.25)
        assert support_probabilities(inst).tolist() == [0.75, 0.25]

    def test_two_half_edges(self):
        inst = Instance("bipartite", 2,
                        (PotentialEdge(0, 0, 0.5, 1.0), PotentialEdge(1, 1, 0.5, 1.0)))
        assert support_probabilities(inst).tolist() == [0.25, 0.25, 0.25, 0.25]

    def test_degenerate_probabilities(self):
        inst = Instance("bipartite", 2,
                        (PotentialEdge(0, 0, 1.0, 1.0), PotentialEdge(1, 1, 0.0, 1.0)))
        probs = support_probabilities(inst)
        # only mask 0b01 (edge 0 realized, edge 1 not) has positive probability
        assert [(mask, p) for mask, p in enumerate(probs.tolist()) if p > 0] == [(0b01, 1.0)]

    def test_probabilities_sum_to_one_and_match_brute(self):
        inst = gen_random_point(3, 0.8, 13, "bipartite")
        assert 0 < inst.num_edges <= 9
        probs = support_probabilities(inst)
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)
        # against direct outcome products
        for mask in range(1 << inst.num_edges):
            expect = 1.0
            for j in range(inst.num_edges):
                expect *= inst.edges[j].x if (mask >> j) & 1 else 1 - inst.edges[j].x
            assert probs[mask] == pytest.approx(expect, abs=1e-12)

    def test_per_edge_marginals(self):
        inst = gen_random_point(3, 0.7, 21, "general")
        probs = support_probabilities(inst)
        for j in range(inst.num_edges):
            marginal = sum(p for mask, p in enumerate(probs) if (mask >> j) & 1)
            assert marginal == pytest.approx(inst.edges[j].x, abs=1e-9)

    def test_cutoff(self):
        edges = tuple(PotentialEdge(u, v, 0.5, 1.0)
                      for u, v in itertools.product(range(7), range(3)))
        inst = Instance("bipartite", 7, edges)
        assert inst.num_edges == 21
        with pytest.raises(SupportTooLarge, match="support too large"):
            support_probabilities(inst)
