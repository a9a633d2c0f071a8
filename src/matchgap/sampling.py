"""Sampling realized graphs and the probabilities of the full support.

A draw realizes each potential edge independently with its probability.
Sample ``index`` of a run consumes positions ``0..m-1`` of counter stream
``index``, so the realization is a pure function of (seed, index,
edge position) and Monte Carlo results do not depend on worker count or
evaluation order.

Every Monte Carlo path draws through `realization_blocks`, which hashes
as many samples at a time as fit in ``BLOCK_BYTES`` of uint64 work array
(so the working set stays in a per-core cache) and decides edges with
integer thresholds (see `rng`).  Its blocks are views of buffers reused
for the next block: `SampledGraph` freezes the array it is given without
copying it, so copy a row, or take its edge indices, before keeping it
past the next block.  Monte Carlo solvers read each sample as the
array of realized edge indices (`realized_edge_lists`) in `sample_values`.
"""

from __future__ import annotations

import os
import pickle
import threading
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator

import numpy as np

from .model import Instance
from .rng import BernoulliBlocks

#: Exact enumeration refuses supports larger than 2**SUPPORT_CUTOFF.
SUPPORT_CUTOFF = 20

#: Bytes of one block's uint64 work array: a block holds
#: max(1, BLOCK_BYTES // (8 m)) samples of an m-edge instance.
BLOCK_BYTES = 512 * 1024

#: Least work of a run that `sample_values` splits, in edge draws: samples x
#: (edges + 256 x expected realized edges; a solver takes 200-300 draws' time
#: per realized edge).  On a 2-vCPU VM splits paid off at 2**25, not 2**24.
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
    draws = BernoulliBlocks(seed, inst.x, rows)
    for first in range(start, start + count, rows):
        yield draws.draw(first, min(rows, start + count - first))


def realized_edge_lists(inst: Instance, seed: int, start: int,
                        count: int) -> Iterator[np.ndarray]:
    """Samples start..start+count-1 in order, each as the ascending array
    of its realized edge indices (the caller's own, not a block view)."""
    for block in realization_blocks(inst, seed, start, count):
        for row in block:
            yield np.flatnonzero(row)


def sample_values(inst: Instance, solve: Callable[[np.ndarray], float], seed: int,
                  start: int, count: int) -> np.ndarray:
    """float64 array of solve(realized edge indices) for samples
    start..start+count-1, in order.

    A run of at least ``SPLIT_MIN_WORK`` is cut into one sample range per
    CPU in the affinity mask, each solved in a forked worker.  On one CPU,
    without ``os.fork`` or beside other threads (unsafe to fork) the loop
    runs serially.  Either way a failure raises as in the serial loop.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, count)
    if (workers > 1 and hasattr(os, "fork") and threading.active_count() == 1
            and count * (inst.num_edges + 256 * inst.x.sum()) >= SPLIT_MIN_WORK):
        cuts = [start + count * k // workers for k in range(workers + 1)]
        return _forked_values(inst, solve, seed, cuts)
    return _solved(inst, solve, seed, start, count)


def _solved(inst, solve, seed, first, n) -> np.ndarray:
    return np.fromiter(map(solve, realized_edge_lists(inst, seed, first, n)), float, n)


def _forked_values(inst, solve, seed, cuts) -> np.ndarray:
    workers = []  # (pid, pipe read end) per range between consecutive cuts
    try:
        for first, stop in zip(cuts, cuts[1:]):
            r, w = os.pipe()
            pid = os.fork()
            if pid == 0:  # pipe back the array or what solve raised; no exit handlers
                try:
                    try:
                        out = _solved(inst, solve, seed, first, stop - first)
                    except Exception as exc:
                        out = exc
                    with open(w, "wb") as fh:
                        fh.write(pickle.dumps(out))
                finally:
                    os._exit(0)
            os.close(w)
            workers.append((pid, open(r, "rb")))
        parts = []
        for _, fh in workers:  # in range order: the lowest failing range raises
            data = fh.read()
            out = pickle.loads(data) if data else RuntimeError("a sample worker died")
            if isinstance(out, Exception):
                raise out
            parts.append(out)
        return np.concatenate(parts)
    finally:  # SIGKILL (9) stops the workers left after a failure
        for pid, fh in workers:
            fh.close()
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

