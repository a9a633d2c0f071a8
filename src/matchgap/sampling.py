"""Sampling realized graphs and the probabilities of the full support.

A draw realizes each potential edge independently with its probability.
Sample ``index`` of a run consumes positions ``0..m-1`` of counter stream
``index``, so the realization is a pure function of (seed, index,
edge position) and Monte Carlo results do not depend on worker count or
evaluation order.

Every Monte Carlo path draws through `realization_blocks`, which hashes
as many samples at a time as fit in ``BLOCK_BYTES`` of uint64 work array
(so the working set stays in a per-core cache) and decides edges with
integer thresholds T = ceil(x * 2**53), most of them before the last mix
step: the hash ``z3 ^ (z3 >> 31)`` keeps the bits of z3 from 33 up, so
``(hash >> 11) < T`` needs ``z3 <= (T * 2**11 - 1) | (2**33 - 1)``, and
only the draws under that cut are finished (`rng` has the two ends).  It
derives the samples' stream keys once per run, or once per
``BLOCK_BYTES`` of keys, and hands each block its slice.  A block is the
ascending flat positions ``row * m + edge`` of its realized draws and its
row count; its per-edge and per-vertex 8-byte arrays fit in
``BLOCK_BYTES`` (`block_rows`), so no consumer cuts one.  Consumers pool
whole blocks by one rule, `block_groups`, and lay a group out as one
block by `join_blocks`: Monte Carlo value batches (`sample_values`) and
the weighted peeler's lockstep runs, mass certificate covers, and the
dense views `realization_block` and `sample`.
Every per-sample or per-mask loop (values, mass certificate rows, kernel
rows) runs through one map, `row_map`, which splits large ones over
forked workers.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .model import Instance
from .rng import BernoulliBlocks, stream_key

#: Exact enumeration refuses supports larger than 2**SUPPORT_CUTOFF.
SUPPORT_CUTOFF = 20

#: Bytes of a block's widest 8-byte array: a block holds
#: max(1, BLOCK_BYTES // (8 max(m, V))) samples of m edges on V vertices.
BLOCK_BYTES = 512 * 1024

#: Least work of a `row_map` that it splits, in edge draws; on a 2-vCPU VM
#: splits paid off at 2**25, not 2**24.  Monte Carlo values count samples x
#: (edges + 256 x expected realized edges), mass certificate rows count rows
#: x (edges + 280 x mean realized edges) and kernel-MC rows count samples x
#: edges x 9.  In draws of 2.8-3.0e8 hashes/s, a realized edge took 35-40
#: draws' time in a value (Karp-Sipser n=200 c=1) and 90-107 (weighted,
#: random_point n=100 density 0.1), in a cover and its scheme masses 111-552
#: (medians 211-238), and a kernel edge 5.1-7.7 beside its own draw
#: (medians), in three runs of ``scripts/row_costs.py`` on one CPU.  The
#: factors stay above those medians: 256 leaves both Monte Carlo benchmark
#: workloads split (factors down to 44 would), and mass and kernel runs that
#: factors at those costs would keep serial finished 10-33% sooner on two
#: workers.
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
        return np.flatnonzero(self.realized)

    @cached_property
    def degrees(self) -> np.ndarray:
        """Realized degree per global vertex id."""
        return block_degrees(self.instance, self.edge_indices, 1)[0]

    @property
    def num_realized(self) -> int:
        return int(self.realized.sum())


def realization_blocks(inst: Instance, seed: int, start: int,
                       count: int) -> Iterator[tuple[np.ndarray, int]]:
    """Realizations of samples start..start+count-1, in order, as blocks.

    Each block is (flat, rows): `rows` consecutive samples and the
    ascending int64 positions ``k * m + j`` of their realized edges, k
    the sample's row in the block and j the edge; together the blocks hold
    `count` rows.
    """
    rows = block_rows(inst, count)
    draws = BernoulliBlocks(inst.x, rows)
    # stream keys for as many whole blocks as fit in BLOCK_BYTES, at least one
    chunk = rows * max(1, BLOCK_BYTES // (8 * rows))
    stop = start + count
    for first in range(start, stop, chunk):
        keys = stream_key(seed, np.arange(first, min(first + chunk, stop), dtype=np.uint64))
        for k in range(0, len(keys), rows):
            block = keys[k:k + rows]
            yield draws.draw(block), len(block)


def block_rows(inst: Instance, count: int) -> int:
    """Rows per block of `realization_blocks` for `count` samples (``BLOCK_BYTES``)."""
    return max(1, min(count, BLOCK_BYTES // (8 * max(inst.num_edges, inst.total_vertices, 1))))


def block_groups(blocks, rows: int):
    """Consecutive whole `blocks` (flat, rows, ...) in lists, each closed
    once it holds at least `rows` rows; the last may hold fewer."""
    group, held = [], 0
    for block in blocks:
        group.append(block)
        held += block[1]
        if held >= rows:
            yield group
            group, held = [], 0
    if group:
        yield group


def join_blocks(group, m: int) -> tuple[np.ndarray, int]:
    """Consecutive blocks (flat, rows, ...) of an m-edge instance as one
    block (flat, rows), each block's rows after those before it; a lone
    block is not copied."""
    if len(group) == 1:
        return group[0][0], group[0][1]
    at = np.cumsum([0] + [block[1] for block in group])
    flats = [block[0] + k * m for block, k in zip(group, at)]
    return np.concatenate([np.empty(0, dtype=np.int64)] + flats), int(at[-1])


def split_flat(flat: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The rows and edges of a block's flat positions ``row * m + edge``,
    as ``np.divmod(flat, max(m, 1))`` gives them, from one floor divide:
    numpy divides by a scalar cheaply but takes a remainder slowly."""
    m = max(m, 1)
    row = flat // m
    return row, flat - row * m


def sample_values(inst: Instance, solve: Callable[[Iterable], Iterator[np.ndarray]],
                  seed: int, start: int, count: int) -> np.ndarray:
    """float64 array of the values of samples start..start+count-1, in order.

    `solve(batches)` yields one array of values per batch, in order.  A
    batch (sid, edge, rows) holds `rows` samples, edge[i] realized in
    sample sid[i] of the batch (0..rows-1), in (sample, edge) order: a
    group of whole blocks (`block_groups`) of at least `batch_rows`
    samples.  Each `row_map` range (a row of width 1 a sample) hands all
    its batches to one `solve` call, which may pool work across them.
    """
    out = np.empty(count, dtype=np.float64)
    pos = 0
    work = count * (inst.num_edges + 256 * inst.x.sum())
    for piece in row_map(partial(_solved, inst, solve, seed, start), count, 1, work):
        out[pos:pos + len(piece)] = piece[:, 0]
        pos += len(piece)
    return out


def batch_rows(inst: Instance) -> int:
    """Least samples of a Monte Carlo value batch, and of a pooled solver
    run: as many as have ``BLOCK_BYTES`` of 8-byte per-vertex arrays."""
    return BLOCK_BYTES // max(8 * inst.total_vertices, 1)


def _solved(inst, solve, seed, start, first, stop) -> Iterator[np.ndarray]:
    m = max(inst.num_edges, 1)
    groups = block_groups(realization_blocks(inst, seed, start + first, stop - first),
                          batch_rows(inst))
    blocks = (join_blocks(group, m) for group in groups)
    for values in solve((*split_flat(flat, m), rows) for flat, rows in blocks):
        yield np.asarray(values, dtype=np.float64)[:, None]


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
    serial map: the first failing range's exception.
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
            data = fh.read()  # in range order: the first failing range raises
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


def block_degrees(inst: Instance, flat: np.ndarray, rows: int) -> np.ndarray:
    """(rows, total_vertices) realized degrees of the rows of a block given
    by its flat positions (see `realization_blocks`)."""
    row, col = split_flat(flat, inst.num_edges)
    nv = inst.total_vertices
    base = row * nv
    first, second = inst.endpoints.T
    # one count over both ends: two (rows * nv) counts alive at once cost
    # 20 times as much on 2,114-row blocks of pendant_star n=30 (page faults)
    deg = np.bincount(np.concatenate([base + first[col], base + second[col]]),
                      minlength=rows * nv)
    return deg.reshape(rows, nv)


def sample(inst: Instance, seed: int, index: int) -> SampledGraph:
    """Draw sample ``index`` of the run identified by ``seed``."""
    return SampledGraph(inst, realization_block(inst, seed, index, 1)[0])


def realization_block(inst: Instance, seed: int, start: int, count: int) -> np.ndarray:
    """(count, m) boolean matrix for samples start..start+count-1, laid out
    from the flat draw.

    Row k equals sample(inst, seed, start + k).realized.
    """
    flat, _ = join_blocks(list(realization_blocks(inst, seed, start, count)), inst.num_edges)
    return dense_block(flat, count, inst.num_edges)


def dense_block(flat: np.ndarray, rows: int, m: int) -> np.ndarray:
    """Flat positions ``row * m + edge`` as their (rows, m) boolean block."""
    block = np.zeros(rows * m, dtype=bool)
    block[flat] = True
    return block.reshape(rows, m)


def support_probabilities(inst: Instance) -> np.ndarray:
    """Probability of every edge subset, indexed by bitmask (bit j = edge j)."""
    check_support(inst.num_edges)
    return _subset_probabilities(inst.x)


def _subset_probabilities(x: np.ndarray) -> np.ndarray:
    """Probability of every subset of independent edges of probabilities
    `x`, indexed by bitmask, from one product per edge; unchecked."""
    probs = np.ones(1, dtype=np.float64)
    for xj in x:
        probs = np.concatenate([(1.0 - xj) * probs, xj * probs])
    return probs


def check_support(m: int) -> None:
    """Refuse exact enumeration of the 2**m subsets of m edges past the cutoff."""
    if m > SUPPORT_CUTOFF:
        raise SupportTooLarge(f"support too large: 2**{m} subsets exceeds cutoff 2**{SUPPORT_CUTOFF}")
