"""Sampling realized graphs and the probabilities of the full support.

A draw realizes each potential edge independently with its probability.
Sample ``index`` of a run consumes positions ``0..m-1`` of counter stream
``index``, so the realization is a pure function of (seed, index,
edge position) and Monte Carlo results do not depend on worker count or
evaluation order.

Every Monte Carlo path draws through `realization_blocks`, which hashes
as many samples at a time as fit in ``BLOCK_BYTES`` of uint64 work array
(so the working set stays in a per-core cache) and decides edges with
integer thresholds (see `rng`).  It derives the samples' stream keys
once per run, or once per ``BLOCK_BYTES`` of keys, and hands each block
its slice.  Its blocks are views of buffers reused for the next block:
`SampledGraph` freezes the array it is given without copying it, so copy
a row, or take its edge indices, before keeping it past the next block.
Monte Carlo solvers read each sample as the array of realized edge
indices (`realized_edge_lists`), in batches whose per-vertex arrays fit
in ``BLOCK_BYTES`` (`sample_values`).  Every per-sample or per-mask loop
(values, mass certificate rows, kernel rows) runs through one map,
`row_map`, which splits large ones over forked workers.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import islice
from typing import Callable, Iterator

import numpy as np

from .model import Instance
from .rng import BernoulliBlocks, stream_key

#: Exact enumeration refuses supports larger than 2**SUPPORT_CUTOFF.
SUPPORT_CUTOFF = 20

#: Bytes of one block's uint64 work array: a block holds
#: max(1, BLOCK_BYTES // (8 m)) samples of an m-edge instance.
BLOCK_BYTES = 512 * 1024

#: Least work of a `row_map` that it splits, in edge draws; on a 2-vCPU VM
#: splits paid off at 2**25, not 2**24.  Monte Carlo values count samples x
#: (edges + 256 x expected realized edges).  The batched solvers take 30-45
#: draws' time per realized edge (unweighted, Karp-Sipser n=200 c=1) and about
#: 70 (weighted, random_point n=100 density 0.1; the per-sample primal-dual
#: took about 370); 256 stays, as factors down to 44 leave both Monte Carlo
#: benchmark workloads split.  Mass certificate rows count rows x (edges +
#: 800 x mean realized edges): a cover and its scheme masses took 505-1,900
#: draws' time per realized edge over ten instance and scheme cases, medians
#: 705-909 in five runs (their median 798).  Kernel-MC rows count samples x
#: edges x 9: beside its own draw an edge took 5-12 draws' time, medians
#: 7.7-8.6.  Measured on one CPU by ``scripts/row_costs.py``.
SPLIT_MIN_WORK = 1 << 25


class SupportTooLarge(RuntimeError):
    """Raised when exact enumeration is requested beyond the cutoff."""


@dataclass(frozen=True, eq=False)
class SampledGraph:
    """One realized graph: a boolean indicator over the instance's edges."""

    instance: Instance
    realized: np.ndarray

    def __post_init__(self):
        r = np.asarray(self.realized, dtype=bool)
        if r.shape != (self.instance.num_edges,):
            raise ValueError("realization mask must have one entry per potential edge")
        r.setflags(write=False)
        object.__setattr__(self, "realized", r)

    @cached_property
    def edge_indices(self) -> np.ndarray:
        return np.nonzero(self.realized)[0]

    @cached_property
    def degrees(self) -> np.ndarray:
        """Realized degree per global vertex id."""
        return block_degrees(self.instance, self.realized[None])[0]

    @property
    def num_realized(self) -> int:
        return int(self.realized.sum())


def realization_blocks(inst: Instance, seed: int, start: int,
                       count: int) -> Iterator[np.ndarray]:
    """Realizations of samples start..start+count-1, in order, as blocks.

    Each block is a (rows, m) boolean array whose rows are consecutive
    samples; together the blocks hold `count` rows.  Blocks are views of
    one buffer that the next block overwrites.
    """
    rows = max(1, min(count, BLOCK_BYTES // max(8 * inst.num_edges, 1)))
    draws = BernoulliBlocks(inst.x, rows)
    # stream keys for as many whole blocks as fit in BLOCK_BYTES, at least one
    chunk = rows * max(1, BLOCK_BYTES // (8 * rows))
    stop = start + count
    for first in range(start, stop, chunk):
        keys = stream_key(seed, np.arange(first, min(first + chunk, stop), dtype=np.uint64))
        for k in range(0, len(keys), rows):
            yield draws.draw(keys[k:k + rows])


def realized_edge_lists(inst: Instance, seed: int, start: int,
                        count: int) -> Iterator[np.ndarray]:
    """Samples start..start+count-1 in order, each as the ascending array
    of its realized edge indices (the caller's own, not a block view)."""
    for block in realization_blocks(inst, seed, start, count):
        for row in block:
            yield np.flatnonzero(row)


def sample_values(inst: Instance, solve: Callable[[list], np.ndarray], seed: int,
                  start: int, count: int) -> np.ndarray:
    """float64 array of the values of samples start..start+count-1, in order.

    `solve` takes a batch, a list of samples' ascending realized edge
    index arrays, and returns one value per sample; a batch holds as many
    samples as have ``BLOCK_BYTES`` of int64 per-vertex arrays.  The
    batches go through `row_map`, one row of width 1 per sample.
    """
    out = np.empty(count, dtype=np.float64)
    pos = 0
    work = count * (inst.num_edges + 256 * inst.x.sum())
    for piece in row_map(partial(_solved, inst, solve, seed, start), count, 1, work):
        out[pos:pos + len(piece)] = piece[:, 0]
        pos += len(piece)
    return out


def _solved(inst, solve, seed, start, first, stop) -> Iterator[np.ndarray]:
    batch = max(1, BLOCK_BYTES // max(8 * inst.total_vertices, 1))
    lists = realized_edge_lists(inst, seed, start + first, stop - first)
    for k in range(first, stop, batch):
        yield np.asarray(solve(list(islice(lists, batch))), dtype=np.float64)[:, None]


def row_map(fill: Callable[[int, int], Iterator[np.ndarray]], count: int, width: int,
            work: float) -> Iterator[np.ndarray]:
    """Rows 0..count-1 of `fill`, in order, as float64 (rows, width) pieces.

    `fill(first, stop)` yields rows first..stop-1 in order as such pieces.
    A map of at least ``SPLIT_MIN_WORK`` `work` (its cost in edge draws)
    is cut into one contiguous row range per CPU in the affinity mask,
    each filled in a forked worker that spools its rows to an unlinked
    temporary file.  The parent reads the files back in range order, in
    pieces of at most ``BLOCK_BYTES / 8``, so it never holds a whole range
    and a caller folding the pieces in order gets the bytes of the serial
    map.  On one CPU, without ``os.fork`` or beside other threads (unsafe
    to fork) `fill` runs serially.  Either way a failure raises as in the
    serial map: the lowest failing range's exception.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, count)
    if (workers > 1 and hasattr(os, "fork") and threading.active_count() == 1
            and work >= SPLIT_MIN_WORK):
        return _forked_rows(fill, width, [count * k // workers for k in range(workers + 1)])
    return fill(0, count)


def _forked_rows(fill, width, cuts) -> Iterator[np.ndarray]:
    workers = []  # (pid, pipe read end, spool file) per range between consecutive cuts
    try:
        for first, stop in zip(cuts, cuts[1:]):
            spool = tempfile.TemporaryFile()
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # spool the rows, pipe back None or what fill raised; no exit handlers
                try:
                    try:
                        for piece in fill(first, stop):
                            spool.write(np.ascontiguousarray(piece, dtype=np.float64))
                        spool.flush()
                        out = None
                    except Exception as exc:
                        out = exc
                    with open(w, "wb") as fh:
                        fh.write(pickle.dumps(out))
                finally:
                    os._exit(0)
            os.close(w)
            workers.append((pid, open(r, "rb"), spool))
        # 64 KiB pieces keep the parent's peak at the serial map's: exact mass
        # certify on 13 edges peaked 1.1 MB over import either way, and 1.1 MB
        # higher with 512 KiB pieces (a piece and a fold's cumsum of it)
        rows = max(1, BLOCK_BYTES // 8 // max(8 * width, 1))
        for (_, fh, spool), first, stop in zip(workers, cuts, cuts[1:]):
            data = fh.read()  # in range order: the lowest failing range raises
            out = pickle.loads(data) if data else RuntimeError("a sample worker died")
            if out is not None:
                raise out
            spool.seek(0)
            for k in range(first, stop, rows):
                piece = np.empty((min(rows, stop - k), width), dtype=np.float64)
                if spool.readinto(piece) != piece.nbytes:
                    raise RuntimeError("a sample worker spooled too few rows")
                yield piece
    finally:  # SIGKILL (9) stops the workers left after a failure
        for pid, fh, spool in workers:
            fh.close()
            spool.close()
            os.kill(pid, 9)
            os.waitpid(pid, 0)


def block_degrees(inst: Instance, block: np.ndarray) -> np.ndarray:
    """(rows, total_vertices) realized degrees of the rows of a block."""
    rows, cols = np.nonzero(block)
    ends = inst.endpoints
    nv = inst.total_vertices
    base = rows * nv
    deg = np.bincount(np.concatenate([base + ends[cols, 0], base + ends[cols, 1]]),
                      minlength=len(block) * nv)
    return deg.reshape(len(block), nv)


def sample(inst: Instance, seed: int, index: int) -> SampledGraph:
    """Draw sample ``index`` of the run identified by ``seed``."""
    # a one-sample run allocates its own block, which nothing reuses
    return SampledGraph(inst, next(realization_blocks(inst, seed, index, 1))[0])


def realization_block(inst: Instance, seed: int, start: int, count: int) -> np.ndarray:
    """(count, m) boolean matrix for samples start..start+count-1.

    Row k equals sample(inst, seed, start + k).realized; unlike the blocks
    of `realization_blocks` the matrix is the caller's own.
    """
    out = np.empty((count, inst.num_edges), dtype=bool)
    pos = 0
    for block in realization_blocks(inst, seed, start, count):
        out[pos:pos + len(block)] = block
        pos += len(block)
    return out


def support_probabilities(inst: Instance) -> np.ndarray:
    """Probability of every edge subset, indexed by bitmask (bit j = edge j)."""
    m = inst.num_edges
    if m > SUPPORT_CUTOFF:
        raise SupportTooLarge(f"support too large: 2**{m} subsets exceeds cutoff 2**{SUPPORT_CUTOFF}")
    probs = np.ones(1, dtype=np.float64)
    for xj in inst.x:
        probs = np.concatenate([(1.0 - xj) * probs, xj * probs])
    return probs

