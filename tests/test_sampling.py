import itertools
import math
import os
import re
import threading
import time
import tracemalloc
from functools import partial
from itertools import starmap

import numpy as np
import pytest

from matchgap import (Instance, MatchingCutoffExceeded, PotentialEdge, SupportTooLarge,
                      mc_ratio, per_edge_certificates, per_edge_masses_exact, phi_curve,
                      sample, support_probabilities)
from matchgap import estimate, matching_value, sampling
from matchgap.gallery import gen_random_point
from matchgap.matching import value_solver
from matchgap.rng import uniform_block
from matchgap.sampling import block_degrees, dense_block, realization_block, realization_blocks

from conftest import bits, block_bytes


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
        """The blocks' flat positions laid out as (count, m) rows."""
        out = []
        for flat, rows in realization_blocks(inst, seed, start, count):
            assert flat.dtype == np.int64 and np.all(np.diff(flat) > 0)
            out.append(dense_block(flat, rows, inst.num_edges))
        return np.concatenate(out)

    @pytest.mark.parametrize("x", X_VALUES)
    def test_one_edge_rows_across_blocks(self, x):
        # a block holds 32,768 rows of one edge on two vertices; start is
        # not a multiple of that
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

    @pytest.mark.parametrize("start", [0, 2 ** 40 + 3])
    @pytest.mark.parametrize("rows", [1, 7])
    def test_keys_derived_once_per_chunk(self, monkeypatch, rows, start):
        # stream keys come from one stream_key call per BLOCK_BYTES // 8
        # samples, here rows x V of them (8 vertices, more than the 4
        # edges); 150 samples cross block and key-chunk edges, and neither
        # divides 150
        inst = gen_random_point(4, 0.6, 8, "bipartite")
        m, nv = inst.num_edges, inst.total_vertices
        assert nv > m
        monkeypatch.setattr(sampling, "BLOCK_BYTES", block_bytes(inst, rows))
        calls = []
        real = sampling.stream_key
        monkeypatch.setattr(sampling, "stream_key",
                            lambda seed, streams: calls.append(len(streams)) or real(seed, streams))
        got = self.rows(inst, 9, start, 150)
        assert calls[:-1] == [rows * nv] * (len(calls) - 1) and sum(calls) == 150
        assert 150 % (rows * nv) != 0
        for k in range(150):
            assert np.array_equal(got[k], uniform_block(9, [start + k], m)[0] < inst.x)

    def test_zero_count_yields_nothing(self):
        assert list(realization_blocks(single_edge(0.5), 1, 4, 0)) == []

    @pytest.mark.parametrize("rows", [1, 7])
    def test_realized_batches_across_blocks(self, monkeypatch, rows):
        # the batches `sample_values` hands its solver pool whole blocks of
        # `rows`: each closes at the first block edge at or past `batch`
        # samples (1 to 64), and each sample's realized edges, in (sample,
        # edge) order, equal that sample's edge indices, also for samples
        # with no realized edge and across block and batch edges
        inst = gen_random_point(4, 0.6, 8, "bipartite")
        monkeypatch.setattr(sampling, "block_rows", lambda inst, count: max(1, min(count, rows)))
        for batch in (1, 3, 7, 16, 64):
            monkeypatch.setattr(sampling, "BLOCK_BYTES", batch * 8 * inst.total_vertices)
            lists = []

            def solve(sid, edge, count):
                assert count == min(-(-batch // rows) * rows, 40 - len(lists))
                assert np.all(np.diff(sid) >= 0) and np.all((0 <= sid) & (sid < count))
                lists.extend(edge[sid == k].tolist() for k in range(count))
                return np.zeros(count)

            sampling.sample_values(inst, partial(starmap, solve), 3, 11, 40)
            assert len(lists) == 40 and [] in lists
            for k, idx in enumerate(lists):
                assert idx == sample(inst, 3, 11 + k).edge_indices.tolist()

    @pytest.mark.parametrize("kind, weighted", [("bipartite", False), ("bipartite", True),
                                                ("general", True)])
    @pytest.mark.parametrize("n, density", [(5, 0.5), (8, 0.15), (30, 0.02)])
    def test_values_across_blocks_and_batches(self, monkeypatch, kind, weighted, n, density):
        # blocks and batches whose edges fall inside the run give each
        # sample matching_value's bits; the dense instances have more edges
        # than vertices, so a batch pools several blocks, and on the sparse
        # ones (n = 30: 5 to 7.5 vertices an edge) a block is a batch
        inst = gen_random_point(n, density, 3, kind, weighted=weighted)
        m, nv = inst.num_edges, inst.total_vertices
        assert (m > nv) == (density > 0.2)
        want = [matching_value(sample(inst, 6, 5 + k)) for k in range(90)]
        for size in (5 * 8 * m, 7 * 8 * nv, 13 * 8 * m, 3 * 8 * nv, 1 << 19):
            monkeypatch.setattr(sampling, "BLOCK_BYTES", size)
            rows, batch = sampling.block_rows(inst, 90), sampling.batch_rows(inst)
            assert rows <= max(batch, 1)  # a batch holds at least one whole block
            got = sampling.sample_values(inst, value_solver(inst), 6, 5, 90)
            assert bits(got) == bits(want)

    def test_block_degrees(self):
        inst = gen_random_point(4, 0.6, 8, "general")
        block = realization_block(inst, 2, 0, 9)
        deg = block_degrees(inst, np.flatnonzero(block), 9)
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
            outputs.append([repr(mc_ratio(inst, 301, seed=2)) for inst in insts]
                           + [phi_curve(insts[1], 4, "mc", samples=101, seed=3).tobytes()])
        assert outputs[1] == outputs[0]
        assert outputs[2] == outputs[0]
        assert len(forks) == (2 + 3) * (len(insts) + 4)  # phi at t = 0 draws nothing
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("batch", [1, 7])
    def test_same_bytes_across_batches_and_workers(self, monkeypatch, forks, batch):
        # batches of 1 or 7 samples, serial and over 2 or 3 workers whose
        # ranges do not line up with batch edges, against the default
        # batch (every sample of these runs in one)
        insts = [gen_random_point(4, 0.7, 4, "bipartite", weighted=w) for w in (False, True)]

        def run():
            return ([repr(mc_ratio(inst, 301, seed=2)) for inst in insts]
                    + [phi_curve(inst, 4, "mc", samples=101, seed=3).tobytes()
                       for inst in insts])

        want = run()
        monkeypatch.setattr(sampling, "BLOCK_BYTES", batch * 8 * insts[0].total_vertices)
        monkeypatch.setattr(sampling, "SPLIT_MIN_WORK", 0)
        for workers in (1, 2, 3):
            self.cpus(monkeypatch, workers)
            assert run() == want
        assert len(forks) == (2 + 3) * len(insts) * (1 + 4)  # phi at t = 0 draws nothing

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
        first, second = map(np.flatnonzero, realization_block(inst, 4, 0, 2))
        assert first.tolist() != second.tolist()

        def solve(sid, edge, count):
            if edge[sid == 0].tolist() == first.tolist():
                time.sleep(0.3)
            raise ValueError(f"sample {edge[sid == 0].tolist()}")

        monkeypatch.setattr(sampling, "SPLIT_MIN_WORK", 0)
        self.cpus(monkeypatch, 2)
        with pytest.raises(ValueError, match=re.escape(f"sample {first.tolist()}")):
            sampling.sample_values(inst, partial(starmap, solve), 4, 0, 2)
        assert len(forks) == 2

    def test_dead_worker_is_reported(self, monkeypatch):
        # the solver ends any process but this one without a result
        inst = Instance("bipartite", 2, (PotentialEdge(0, 0, 0.5), PotentialEdge(1, 1, 0.5)))
        here = os.getpid()
        monkeypatch.setattr(sampling, "SPLIT_MIN_WORK", 0)
        self.cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match="a sample worker died"):
            sampling.sample_values(inst, partial(starmap, lambda sid, edge, count: [0.0] * count
                                                 if os.getpid() == here else os._exit(3)),
                                   0, 0, 4)

    def test_serial_path(self, monkeypatch, forks):
        inst = gen_random_point(4, 0.7, 4, "bipartite")
        ref = repr(mc_ratio(inst, 200, seed=2))
        self.cpus(monkeypatch, 2)
        assert repr(mc_ratio(inst, 200, seed=2)) == ref  # too small
        monkeypatch.setattr(sampling, "SPLIT_MIN_WORK", 0)
        self.cpus(monkeypatch, 1)
        assert repr(mc_ratio(inst, 200, seed=2)) == ref  # one CPU
        self.cpus(monkeypatch, 2)
        stop = threading.Event()
        other = threading.Thread(target=stop.wait)
        other.start()
        try:
            assert repr(mc_ratio(inst, 200, seed=2)) == ref  # another thread
        finally:
            stop.set()
            other.join(timeout=10)
        assert not other.is_alive()
        monkeypatch.delattr(os, "fork")
        assert repr(mc_ratio(inst, 200, seed=2)) == ref  # no fork
        assert forks == []


def grid_instance(n, count, x, weighted):
    """Bipartite instance on the first `count` pairs of an n x n grid,
    each of probability x; weights 1, or cycling 1, 2.5, 0.75."""
    pairs = [(u, v) for u in range(n) for v in range(n)][:count]
    return Instance("bipartite", n, tuple(
        PotentialEdge(u, v, x, (1.0, 2.5, 0.75)[k % 3] if weighted else 1.0)
        for k, (u, v) in enumerate(pairs)))


class TestCertificateSplit:
    """Mass certificates (exact and Monte Carlo) and kernel-MC
    certificates go through `sampling.row_map` like `sample_values`; the
    tests force the split with ``SPLIT_MIN_WORK = 0``, set the affinity
    mask to the worker count, and cut mask chunks, realization blocks and
    the parent's read-back pieces to 7 rows, so no range end falls on
    their edges."""

    forks = TestSampleValuesSplit.forks
    cpus = staticmethod(TestSampleValuesSplit.cpus)

    @pytest.mark.parametrize("scheme", ["weighted", "unweighted"])
    def test_same_bytes_at_any_worker_count(self, monkeypatch, forks, capfd, scheme):
        # 9 edges: 512 masks, cut at 256 or at 170 and 341; 301 samples,
        # cut at 150 or at 100 and 200; none a multiple of 7
        inst = grid_instance(3, 9, 0.3, scheme == "weighted")
        monkeypatch.setattr(estimate, "_MASK_CHUNK", 7)
        monkeypatch.setattr(sampling, "BLOCK_BYTES", 7 * 8 * inst.num_edges)

        def run():
            return [per_edge_masses_exact(inst, scheme).tobytes(),
                    repr(per_edge_certificates(inst, "mc", scheme, "mass",
                                               samples=301, seed=6)),
                    repr(per_edge_certificates(inst, "mc", scheme, "kernel",
                                               samples=301, seed=6))]

        want = run()
        assert forks == []  # below the split rule
        monkeypatch.setattr(sampling, "SPLIT_MIN_WORK", 0)
        for workers in (1, 2, 3):
            self.cpus(monkeypatch, workers)
            assert run() == want
        assert len(forks) == (2 + 3) * 3
        assert capfd.readouterr() == ("", "")

    @pytest.mark.parametrize("workers", [2, 3])
    def test_cover_worker_exception_lowest_range_first(self, monkeypatch, forks, capfd,
                                                       workers):
        # every cover block fails, naming its first row's edges; the first
        # range's failure arrives last but is the one the serial map raises
        inst = grid_instance(3, 9, 0.3, True)
        real = estimate.cover_solver

        def failing(inst):
            covers = real(inst)

            def solve(flat, rows):
                covers(flat, rows)
                first = flat[flat < inst.num_edges].tolist()
                if not first:
                    time.sleep(0.3)
                raise ValueError(f"cover of {first}")
            return solve

        monkeypatch.setattr(estimate, "cover_solver", failing)
        with pytest.raises(ValueError, match=re.escape("cover of []")):
            per_edge_masses_exact(inst)
        monkeypatch.setattr(sampling, "SPLIT_MIN_WORK", 0)
        self.cpus(monkeypatch, workers)
        with pytest.raises(ValueError, match=re.escape("cover of []")):
            per_edge_masses_exact(inst)
        assert len(forks) == workers
        assert capfd.readouterr() == ("", "")

    def test_parent_memory_flat_in_split_exact_run(self, monkeypatch, forks):
        # a parent holding a whole range's rows would grow by about 3.3 MB
        # from 14 to 16 edges (half the masks x m x 8 bytes); it may grow
        # only by the masks and probabilities, with the temporaries of
        # building them (2.5 probability arrays at the last edge)
        monkeypatch.setattr(sampling, "SPLIT_MIN_WORK", 0)
        self.cpus(monkeypatch, 2)
        fork = os.fork  # the workers stop tracing, which would slow them

        def untraced_fork():
            pid = fork()
            if pid == 0:
                tracemalloc.stop()
            return pid

        monkeypatch.setattr(os, "fork", untraced_fork)
        peaks = []
        for m in (14, 16):
            inst = grid_instance(4, m, 0.25, True)
            tracemalloc.start()
            try:
                per_edge_masses_exact(inst)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        arrays = 8 * ((1 << 16) - (1 << 14))
        assert peaks[1] - peaks[0] <= 2.5 * arrays
        assert len(forks) == 2 * 2


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
