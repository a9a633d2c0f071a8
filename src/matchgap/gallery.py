"""Generators for extremal and benchmark instances.

- karp_sipser: every pair carries the same probability; vertex loads
  equal c, so c > 1 leaves the polytope (useful only for upper-bound
  demonstrations and explicitly flagged by validation).
- pendant_star: a tiny-probability edge whose one endpoint carries a
  near-certain edge and whose other endpoint carries a spread-out star;
  drives the weighted kernel to its floor.
- equal_split_star: both endpoints of the tiny edge carry equal stars;
  drives the unweighted envelope.
- random_point: random degree-feasible point of the polytope with random
  weights, for property sweeps.
"""

from __future__ import annotations

import numpy as np

from .model import Instance
from .rng import uniform_block

#: stream ids used by the random generator, disjoint from sampling streams
_STREAM_KEEP = 1 << 62
_STREAM_PROB = (1 << 62) + 1
_STREAM_WEIGHT = (1 << 62) + 2


def _all_pairs(n: int, kind: str) -> np.ndarray:
    """(2, m) endpoint columns, global ids, of every potential edge:
    left-right pairs in itertools.product order (bipartite) or unordered
    pairs in itertools.combinations order (general); none for n <= 0."""
    n = max(n, 0)
    if kind == "bipartite":
        return np.stack([np.repeat(np.arange(n), n), np.tile(np.arange(n, 2 * n), n)])
    if kind == "general":
        return np.stack(np.triu_indices(n, 1))
    raise ValueError(f"unknown kind {kind!r}")


def gen_karp_sipser(n: int, c: float, kind: str = "general") -> Instance:
    """Uniform-probability instance: x = c/(n-1) on all pairs (general) or
    c/n on all left-right pairs (bipartite), unit weights."""
    if n < 2:
        raise ValueError("need at least two vertices")
    if c < 0:
        raise ValueError("c must be nonnegative")
    if kind not in ("general", "bipartite"):
        raise ValueError(f"unknown kind {kind!r}")
    x = c / (n - 1) if kind == "general" else c / n
    if x > 1.0:
        raise ValueError(f"c={c} makes probabilities exceed 1 at n={n}")
    ends = _all_pairs(n, kind).T
    return Instance.from_arrays(kind, n, ends, np.full(len(ends), x), np.ones(len(ends)))


def gen_pendant_star(n: int, eps: float) -> Instance:
    """Bipartite pendant star.  Edge 0 is the designated edge (L0, R0) with
    probability eps; L0 also carries (L0, R1) with probability 1 - eps; R0
    carries n-1 edges of probability (1-eps)/(n-1) from L1..L(n-1); unit
    weights."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    cols = np.empty((2, n + 1), dtype=np.int64)
    cols[:, :2] = [[0, 0], [n, n + 1]]
    cols[0, 2:] = np.arange(1, n)
    cols[1, 2:] = n
    x = np.full(n + 1, (1.0 - eps) / (n - 1))
    x[:2] = [eps, 1.0 - eps]
    return Instance.from_arrays("bipartite", n, cols.T, x, np.ones(n + 1))


def gen_equal_split_star(n: int, eps: float) -> Instance:
    """Bipartite double star.  Edge 0 is (L0, R0) with probability eps; L0
    carries n-1 edges to R1.. and R0 carries n-1 edges from L1.., each with
    probability (1-eps)/(n-1); unit weights."""
    if n < 2:
        raise ValueError("need n >= 2")
    if not (0.0 < eps <= 1.0):
        raise ValueError("eps must lie in (0, 1]")
    cols = np.empty((2, 2 * n - 1), dtype=np.int64)
    cols[:, 0] = [0, n]
    cols[0, 1:n] = 0
    cols[1, 1:n] = np.arange(n + 1, 2 * n)
    cols[0, n:] = np.arange(1, n)
    cols[1, n:] = n
    x = np.full(2 * n - 1, (1.0 - eps) / (n - 1))
    x[0] = eps
    return Instance.from_arrays("bipartite", n, cols.T, x, np.ones(2 * n - 1))


def gen_random_point(n: int, density: float, seed: int, kind: str = "bipartite",
                     weighted: bool = True) -> Instance:
    """Random degree-feasible instance: pairs kept with probability
    `density`, probabilities drawn uniformly then rescaled per vertex until
    every load is at most 1, weights uniform in [0, 1] (or all 1).  The
    batch of one of `gen_random_points`."""
    return gen_random_points(n, density, [seed], kind, weighted)[0]


def gen_random_points(n: int, density: float, seeds, kind: str = "bipartite",
                      weighted: bool = True) -> tuple[Instance, np.ndarray]:
    """The random instances of `gen_random_point` for every seed, as one
    instance, their disjoint union, and its cuts: instance k's edges are
    the union's edges cuts[k]..cuts[k+1]-1, in their own order, and its
    vertices are shifted k n places along each side (bipartite) or along
    the one (general).  The union has n len(seeds) vertices per side or
    in all, so the union of one seed is that seed's instance."""
    if not (0.0 <= density <= 1.0):
        raise ValueError("density must lie in [0, 1]")
    pairs = _all_pairs(n, kind)
    seeds = np.array(seeds, dtype=np.uint64)
    count = len(seeds)
    # row k, column s: position j of stream s under seeds[k]
    u = uniform_block(seeds[:, None], [_STREAM_KEEP, _STREAM_PROB, _STREAM_WEIGHT], len(pairs[0]))
    keep = u[:, 0] < density
    trial, col = np.nonzero(keep)  # row-major: each instance's edges in pair order
    cuts = np.concatenate([[0], np.cumsum(np.count_nonzero(keep, axis=1))])
    cols = pairs.take(col, axis=1) + trial * n  # C order, as pairs[:, col] is not
    if kind == "bipartite":
        cols[1] += (count - 1) * n  # right ids start after every left side
    x = u[:, 1][keep]
    w = u[:, 2][keep] if weighted else np.ones(len(x))
    if len(x):
        # loads add each edge's x at u then at v, edge by edge (one add.at
        # over the interleaved ids keeps every vertex's summation order);
        # an instance whose loads are all at most 1 divides by exactly 1.0
        ids = cols.T.ravel()
        for _ in range(64):
            loads = np.zeros(2 * n * count if kind == "bipartite" else n * count)
            np.add.at(loads, ids, np.repeat(x, 2))
            if loads.max() <= 1.0:
                break
            x /= np.maximum(1.0, np.maximum(loads[cols[0]], loads[cols[1]]))
    return Instance.from_arrays(kind, n * count, cols.T, x, w), cuts
