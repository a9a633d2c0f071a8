"""Exact matching solvers and fractional vertex covers.

Bipartite graphs get a primal-dual solver that returns the maximum
matching weight together with an optimal fractional vertex cover: vertex
potentials y >= 0 with y_u + y_v >= w_e on every realized edge and
||y||_1 equal to the matching weight (Koenig-Egervary duality).  General
graphs get exhaustive search, exact at small sizes only.

`matching_values_over_subsets` evaluates the maximum matching weight of
every subset of the potential edges in one vectorized sweep; it is the
workhorse behind exact expectations.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import Instance
from .sampling import SUPPORT_CUTOFF, SampledGraph

#: Exact general search accepts graphs within either cutoff.
GENERAL_VERTEX_CUTOFF = 20
GENERAL_EDGE_CUTOFF = 24

_TIGHT = 1e-12


class MatchingCutoffExceeded(RuntimeError):
    """Exact search was requested beyond the documented cutoffs."""


@dataclass(frozen=True)
class Matching:
    """A matching as a tuple of realized edge indices plus its weight."""

    edges: tuple[int, ...]
    value: float


@dataclass(frozen=True, eq=False)
class FractionalVertexCover:
    """Nonnegative vertex values, indexed by global vertex id."""

    y: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.y, dtype=np.float64)
        arr.setflags(write=False)
        object.__setattr__(self, "y", arr)

    @property
    def norm(self) -> float:
        return float(self.y.sum())


def max_weight_matching_bipartite(g: SampledGraph):
    """Maximum-weight matching of a realized bipartite graph with its dual.

    Returns (Matching, value, FractionalVertexCover).  The cover is the
    final potential vector of the primal-dual phases: feasible on realized
    edges, zero on isolated and exposed vertices, total equal to the
    matching weight.  Ties between optimal matchings and between optimal
    covers are broken deterministically by vertex and edge order.
    """
    inst = g.instance
    if inst.kind != "bipartite":
        raise TypeError("bipartite solver requires a bipartite instance")
    idx = g.edge_indices
    # lists over the realized edges only; position k stands for edge idx[k]
    tails, arcs = _bipartite_arcs(inst, idx)
    mate_left, y_left, y_right = _primal_dual(range(len(arcs)), tails, arcs, inst.n)
    value = _matched_weight(mate_left, arcs)
    edges = tuple(idx[sorted(k for _, k in mate_left.values())].tolist())
    return Matching(edges, value), value, FractionalVertexCover(_cover(y_left, y_right))


def _bipartite_arcs(inst: Instance, idx: np.ndarray):
    """Lists for `_primal_dual` over the edges `idx`: the left vertex of
    each, and its arc (right vertex, weight, position in `idx`)."""
    ends = inst.endpoints[idx]
    arcs = zip((ends[:, 1] - inst.n).tolist(), inst.w[idx].tolist(), range(len(idx)))
    return ends[:, 0].tolist(), list(arcs)


def _primal_dual(idx, tails, arcs, n):
    """Kuhn's primal-dual method on the edges at positions `idx`
    (ascending) of `tails` and `arcs`; an arc's last entry is its position.

    Left vertices start at their largest incident weight, right vertices
    at zero; roots are taken in vertex order.  Returns (mate_left,
    y_left, y_right): mate_left maps each matched left vertex to its
    (right vertex, edge position), y_left holds the potential of every
    left vertex with a realized edge and y_right that of every right
    vertex.
    """
    adj: dict[int, list[tuple[int, float, int]]] = {}
    y_left: dict[int, float] = {}
    for j in idx:
        u = tails[j]
        arc = arcs[j]
        if u in adj:
            adj[u].append(arc)
            if arc[1] > y_left[u]:
                y_left[u] = arc[1]
        else:
            adj[u] = [arc]
            y_left[u] = arc[1]
    y_right = [0.0] * n
    mate_left: dict[int, tuple[int, int]] = {}   # u -> (v, edge)
    mate_right: list = [None] * n                # v -> (u, edge), or None

    for root in sorted(adj):
        yu = y_left[root]
        if root in mate_left or yu <= _TIGHT:
            continue
        # The first scan of the phase: when the root's first tight edge
        # reaches a free right vertex, the phase matches it and ends.
        for v, w, j in adj[root]:
            if yu + y_right[v] - w <= _TIGHT:
                if mate_right[v] is None:
                    mate_left[root] = (v, j)
                    mate_right[v] = (root, j)
                break
        if root not in mate_left:
            _run_phase(root, adj, y_left, y_right, mate_left, mate_right)
    return mate_left, y_left, y_right


def _matched_weight(mate_left, arcs) -> float:
    # one edge at a time in left-vertex order, which fixes the last bits
    value = 0.0
    for u in sorted(mate_left):
        value += arcs[mate_left[u][1]][1]
    return value


def _cover(y_left, y_right) -> np.ndarray:
    n = len(y_right)
    y = np.zeros(2 * n, dtype=np.float64)
    for u, val in y_left.items():
        y[u] = max(0.0, val)
    right = np.array(y_right)
    y[n:] = np.where(right > 0.0, right, 0.0)  # the values of max(0.0, val), NaN included
    return y


def _run_phase(root, adj, y_left, y_right, mate_left, mate_right):
    """Grow one alternating tree from `root` in the tight subgraph.

    The edge entering the tree is the first tight edge in (sorted
    tree-left vertex, adjacency order).  Potentials change only at dual
    adjustments, and the tree only grows, so an edge once found slack or
    leading into the tree stays so until the next adjustment: every
    tree-left vertex keeps a scan position that rewinds only there, and
    the least slack seen per right vertex gives the adjustment without a
    second pass over the tree's edges.

    Ends by matching the root (augment), or by driving some tree vertex's
    potential to zero, at which point that vertex can be left exposed
    without violating complementary slackness (release).
    """
    tree_left = [root]                           # sorted
    scan = {root: 0}                             # u -> next adjacency position
    tree_right: dict[int, tuple[int, int]] = {}  # v -> (parent u, edge)
    parent_left: dict[int, int] = {}             # u -> matched v it entered from
    least: dict[int, float] = {}                 # v -> least slack since the adjustment

    while True:
        entered = None
        for u in tree_left:
            lst = adj[u]
            yu = y_left[u]
            for k in range(scan[u], len(lst)):
                v, w, j = lst[k]
                if v not in tree_right:
                    s = yu + y_right[v] - w
                    if s <= _TIGHT:
                        entered = u, v, j
                        scan[u] = k
                        break
                    t = least.get(v)
                    if t is None or s < t:
                        least[v] = s
            else:
                scan[u] = len(lst)
                continue
            break

        if entered is not None:
            u, v, j = entered
            tree_right[v] = (u, j)
            if mate_right[v] is None:
                _flip_to_root(root, v, u, j, tree_right, mate_left, mate_right)
                return
            u2 = mate_right[v][0]
            insort(tree_left, u2)
            scan[u2] = 0
            parent_left[u2] = v
            continue

        # No tight edge leaves the tree: lower left / raise right potentials.
        slack = math.inf
        for v, s in least.items():
            if s < slack and v not in tree_right:
                slack = s
        floor = min([y_left[u] for u in tree_left])
        delta = min(slack, floor)
        for u in tree_left:
            y_left[u] -= delta
        for v in tree_right:
            y_right[v] += delta

        if floor <= slack:
            # Some potential hit zero: that vertex may stay exposed.
            released = next(u for u in tree_left if y_left[u] <= _TIGHT)
            if released == root:
                return
            v = parent_left[released]
            del mate_left[released]
            u, j = tree_right[v]
            _flip_to_root(root, v, u, j, tree_right, mate_left, mate_right)
            return
        least.clear()
        scan = dict.fromkeys(tree_left, 0)


def _flip_to_root(root, v, u, j, tree_right, mate_left, mate_right):
    # Make (u, v) matched, then re-match the freed vertices up the tree.
    while True:
        prev = mate_left.get(u)
        mate_left[u] = (v, j)
        mate_right[v] = (u, j)
        if u == root:
            return
        v = prev[0]
        u, j = tree_right[v]


def _compact(ends, w):
    """Relabel the vertices touched by the realized edges `ends` (with
    weights `w`) to 0..k-1 in vertex order."""
    verts = sorted({v for e in ends for v in e})
    lookup = {v: i for i, v in enumerate(verts)}
    return len(verts), [(lookup[a], lookup[b], x) for (a, b), x in zip(ends, w)]


def max_weight_matching_general(g: SampledGraph) -> float:
    """Exact maximum matching weight of a realized graph, any kind.

    Uses memoized search over covered-vertex sets when at most
    GENERAL_VERTEX_CUTOFF vertices carry edges, falling back to
    branch-and-bound over edges up to GENERAL_EDGE_CUTOFF edges.
    """
    return _general_solver(g.instance, g.instance.w)(g.edge_indices)


def _general_solver(inst: Instance, w: np.ndarray) -> Callable[[np.ndarray], float]:
    """Exact search with weights `w`, as a function of the realized edges."""
    ends = inst.endpoints
    return lambda idx: _general_value(*_compact(ends[idx].tolist(), w[idx].tolist()))


def _general_value(nv, edges) -> float:
    if not edges:
        return 0.0
    if nv <= GENERAL_VERTEX_CUTOFF:
        return _nu_vertex_dp(nv, edges)
    if len(edges) <= GENERAL_EDGE_CUTOFF:
        return _nu_edge_branch(edges)
    raise MatchingCutoffExceeded(
        f"exact search cutoff exceeded: {nv} vertices, {len(edges)} edges")


def _nu_vertex_dp(nv, edges):
    nbrs: list[list[tuple[int, float]]] = [[] for _ in range(nv)]
    for a, b, w in edges:
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
    memo = {0: 0.0}

    def best(avail: int) -> float:
        cached = memo.get(avail)
        if cached is not None:
            return cached
        v = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << v)
        out = best(rest)
        for u, w in nbrs[v]:
            if rest >> u & 1:
                cand = w + best(rest & ~(1 << u))
                if cand > out:
                    out = cand
        memo[avail] = out
        return out

    return best((1 << nv) - 1)


def _nu_edge_branch(edges):
    edges = sorted(edges, key=lambda e: -e[2])
    suffix = np.concatenate([np.cumsum([w for _, _, w in edges][::-1])[::-1], [0.0]])
    best = 0.0

    def rec(i, used, acc):
        nonlocal best
        if acc > best:
            best = acc
        if i == len(edges) or acc + suffix[i] <= best:
            return
        a, b, w = edges[i]
        if not (used >> a & 1) and not (used >> b & 1):
            rec(i + 1, used | (1 << a) | (1 << b), acc + w)
        rec(i + 1, used, acc)

    rec(0, 0, 0.0)
    return best


def max_cardinality_matching(g: SampledGraph) -> int:
    """Maximum matching cardinality: augmenting paths for bipartite input,
    exact search (within cutoffs) for general input."""
    inst = g.instance
    if inst.kind == "bipartite":
        return _kuhn_solver(inst)(g.edge_indices)
    return int(round(_general_solver(inst, np.ones(inst.num_edges))(g.edge_indices)))


def _kuhn_solver(inst: Instance) -> Callable[[np.ndarray], int]:
    """Augmenting-path cardinality, as a function of the realized edges."""
    ends = inst.endpoints
    return lambda idx: _kuhn_cardinality(ends[idx].tolist())


def _kuhn_cardinality(pairs) -> int:
    adj: dict[int, list[int]] = {}
    for u, v in pairs:
        if u in adj:
            adj[u].append(v)
        else:
            adj[u] = [v]
    # A greedy pass matches every left vertex that has a free neighbour;
    # augmenting from the rest then gives the maximum cardinality, which
    # does not depend on the starting matching.
    mate: dict[int, int] = {}  # right -> left
    rest = []
    for u in sorted(adj):
        for v in adj[u]:
            if v not in mate:
                mate[v] = u
                break
        else:
            rest.append(u)
    return len(mate) + sum(_augment(u, adj, mate) for u in rest)


def _augment(root: int, adj: dict[int, list[int]], mate: dict[int, int]) -> bool:
    """Depth-first search for an augmenting path from `root`; flips it into
    `mate` when found.  An explicit stack replaces recursion, so path
    length is not bounded by the interpreter's recursion limit."""
    seen: set[int] = set()
    stack = [(root, iter(adj[root]))]  # left vertices of the current path
    path: list[int] = []               # path[i]: right vertex stack[i] entered
    while stack:
        for v in stack[-1][1]:
            if v not in seen:
                seen.add(v)
                break
        else:
            stack.pop()
            if path:
                path.pop()
            continue
        path.append(v)
        owner = mate.get(v)
        if owner is None:
            for (u, _), w in zip(stack, path):
                mate[w] = u
            return True
        stack.append((owner, iter(adj[owner])))
    return False


def value_solver(inst: Instance) -> Callable[[np.ndarray], float]:
    """The solver `matching_value` applies to realizations of `inst`, as a
    function of the ascending array of realized edge indices: augmenting
    paths for unweighted bipartite, primal-dual for weighted bipartite,
    exact search for general instances.  The primal-dual's per-instance
    lists are built here, so Monte Carlo loops select it once per run."""
    # Kuhn and exact search gather the realized edges per sample:
    # per-instance lists of a 40,000-edge instance cost cache misses and
    # peak memory
    if inst.kind == "bipartite":
        if inst.is_unweighted:
            kuhn = _kuhn_solver(inst)
            return lambda idx: float(kuhn(idx))
        tails, arcs = _bipartite_arcs(inst, np.arange(inst.num_edges))
        n = inst.n
        return lambda idx: _matched_weight(_primal_dual(idx.tolist(), tails, arcs, n)[0], arcs)
    return _general_solver(inst, inst.w)


def cover_solver(inst: Instance) -> Callable[[np.ndarray], np.ndarray]:
    """The cover of `max_weight_matching_bipartite` for realizations of a
    bipartite `inst`, as a function of the ascending array of realized
    edge indices."""
    tails, arcs = _bipartite_arcs(inst, np.arange(inst.num_edges))
    n = inst.n
    return lambda idx: _cover(*_primal_dual(idx.tolist(), tails, arcs, n)[1:])


def matching_value(g: SampledGraph) -> float:
    """Maximum matching weight via the solver appropriate to the kind."""
    inst = g.instance
    if inst.kind == "bipartite" and not inst.is_unweighted:
        # the wrapper reads the realized edges only, not per-instance lists
        return max_weight_matching_bipartite(g)[1]
    return value_solver(inst)(g.edge_indices)


def matching_values_over_subsets(inst: Instance) -> np.ndarray:
    """Maximum matching weight of every potential-edge subset.

    Entry ``mask`` is the matching weight of the graph whose realized
    edges are the set bits of ``mask``.  Computed by the recurrence on the
    highest edge (drop it, or take it and restrict to disjoint edges),
    vectorized over all lower masks.
    """
    m = inst.num_edges
    if m > SUPPORT_CUTOFF:
        raise MatchingCutoffExceeded(f"subset sweep needs 2**{m} entries; cutoff is 2**{SUPPORT_CUTOFF}")
    ends = inst.endpoints
    compat = np.zeros(m, dtype=np.int64)
    for j in range(m):
        mask = 0
        for i in range(j):
            if len({int(ends[i, 0]), int(ends[i, 1])} &
                   {int(ends[j, 0]), int(ends[j, 1])}) == 0:
                mask |= 1 << i
        compat[j] = mask

    nu = np.zeros(1 << m, dtype=np.float64)
    w = inst.w
    for j in range(m):
        lower = np.arange(1 << j)
        nu[(1 << j):(1 << (j + 1))] = np.maximum(nu[:1 << j], w[j] + nu[lower & compat[j]])
    return nu
