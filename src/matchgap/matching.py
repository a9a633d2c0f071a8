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

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import Instance
from .sampling import SampledGraph

#: Exact general search accepts graphs within either cutoff.
GENERAL_VERTEX_CUTOFF = 20
GENERAL_EDGE_CUTOFF = 24

#: subset sweeps share the sampler's support cutoff
SUPPORT_LIMIT_BITS = 20

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
    n = inst.n

    adj: dict[int, list[tuple[int, float, int]]] = {}
    for j in map(int, g.edge_indices):
        e = inst.edges[j]
        adj.setdefault(e.u, []).append((e.v, e.w, j))

    y_left = {u: max(w for _, w, _ in lst) for u, lst in adj.items()}
    y_right: dict[int, float] = {}
    mate_left: dict[int, tuple[int, int]] = {}   # u -> (v, edge)
    mate_right: dict[int, tuple[int, int]] = {}  # v -> (u, edge)

    for root in sorted(adj):
        if root in mate_left or y_left[root] <= _TIGHT:
            continue
        _run_phase(root, adj, y_left, y_right, mate_left, mate_right)

    value = 0.0
    edges = []
    for u in sorted(mate_left):
        v, j = mate_left[u]
        edges.append(j)
        value += inst.edges[j].w
    edges.sort()

    y = np.zeros(inst.total_vertices, dtype=np.float64)
    for u, val in y_left.items():
        y[u] = max(0.0, val)
    for v, val in y_right.items():
        y[n + v] = max(0.0, val)
    return Matching(tuple(edges), value), value, FractionalVertexCover(y)


def _run_phase(root, adj, y_left, y_right, mate_left, mate_right):
    """Grow one alternating tree from `root` in the tight subgraph.

    Ends by matching the root (augment), or by driving some tree vertex's
    potential to zero, at which point that vertex can be left exposed
    without violating complementary slackness (release).
    """
    tree_left = {root}
    tree_right: dict[int, tuple[int, int]] = {}  # v -> (parent u, edge)
    parent_left: dict[int, int] = {}             # u -> matched v it entered from

    def flip_to_root(v, u, j):
        # Make (u, v) matched, then re-match the freed vertices up the tree.
        while True:
            prev = mate_left.get(u)
            mate_left[u] = (v, j)
            mate_right[v] = (u, j)
            if u == root:
                return
            v = prev[0]
            u, j = tree_right[v]

    while True:
        entered = None
        for u in sorted(tree_left):
            yu = y_left[u]
            for v, w, j in adj[u]:
                if v not in tree_right and yu + y_right.get(v, 0.0) - w <= _TIGHT:
                    entered = (u, v, j)
                    break
            if entered:
                break

        if entered is not None:
            u, v, j = entered
            tree_right[v] = (u, j)
            if v not in mate_right:
                flip_to_root(v, u, j)
                return
            u2 = mate_right[v][0]
            tree_left.add(u2)
            parent_left[u2] = v
            continue

        # No tight edge leaves the tree: lower left / raise right potentials.
        slack = np.inf
        for u in tree_left:
            yu = y_left[u]
            for v, w, j in adj[u]:
                if v not in tree_right:
                    slack = min(slack, yu + y_right.get(v, 0.0) - w)
        floor = min(y_left[u] for u in tree_left)
        delta = min(slack, floor)
        for u in tree_left:
            y_left[u] -= delta
        for v in tree_right:
            y_right[v] = y_right.get(v, 0.0) + delta

        if floor <= slack:
            # Some potential hit zero: that vertex may stay exposed.
            released = min(u for u in tree_left if y_left[u] <= _TIGHT)
            if released == root:
                return
            v = parent_left[released]
            del mate_left[released]
            u, j = tree_right[v]
            flip_to_root(v, u, j)
            return


def _compact_realized(g: SampledGraph):
    """Relabel the vertices touched by realized edges to 0..k-1."""
    inst = g.instance
    idx = g.edge_indices
    ends = inst.endpoints[idx]
    verts = np.unique(ends)
    lookup = {int(v): i for i, v in enumerate(verts)}
    edges = [(lookup[int(a)], lookup[int(b)], float(inst.w[j]))
             for (a, b), j in zip(ends, idx)]
    return len(verts), edges


def max_weight_matching_general(g: SampledGraph) -> float:
    """Exact maximum matching weight of a realized graph, any kind.

    Uses memoized search over covered-vertex sets when at most
    GENERAL_VERTEX_CUTOFF vertices carry edges, falling back to
    branch-and-bound over edges up to GENERAL_EDGE_CUTOFF edges.
    """
    nv, edges = _compact_realized(g)
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
        return _kuhn_cardinality(g)
    nv, edges = _compact_realized(g)
    if not edges:
        return 0
    unit = [(a, b, 1.0) for a, b, _ in edges]
    if nv <= GENERAL_VERTEX_CUTOFF:
        return int(round(_nu_vertex_dp(nv, unit)))
    if len(edges) <= GENERAL_EDGE_CUTOFF:
        return int(round(_nu_edge_branch(unit)))
    raise MatchingCutoffExceeded(
        f"exact search cutoff exceeded: {nv} vertices, {len(edges)} edges")


def _kuhn_cardinality(g: SampledGraph) -> int:
    adj: dict[int, list[int]] = {}
    for u, v in g.instance.endpoints[g.edge_indices].tolist():
        adj.setdefault(u, []).append(v)
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


def _kuhn_value(g: SampledGraph) -> float:
    return float(_kuhn_cardinality(g))


def _primal_dual_value(g: SampledGraph) -> float:
    return max_weight_matching_bipartite(g)[1]


def value_solver(inst: Instance) -> Callable[[SampledGraph], float]:
    """The solver `matching_value` applies to realizations of `inst`:
    augmenting paths for unweighted bipartite, primal-dual for weighted
    bipartite, exact search for general instances.  Monte Carlo loops
    select it once per run."""
    if inst.kind == "bipartite":
        return _kuhn_value if inst.is_unweighted else _primal_dual_value
    return max_weight_matching_general


def matching_value(g: SampledGraph) -> float:
    """Maximum matching weight via the solver appropriate to the kind."""
    return value_solver(g.instance)(g)


def matching_values_over_subsets(inst: Instance) -> np.ndarray:
    """Maximum matching weight of every potential-edge subset.

    Entry ``mask`` is the matching weight of the graph whose realized
    edges are the set bits of ``mask``.  Computed by the recurrence on the
    highest edge (drop it, or take it and restrict to disjoint edges),
    vectorized over all lower masks.
    """
    m = inst.num_edges
    if m > SUPPORT_LIMIT_BITS:
        raise MatchingCutoffExceeded(f"subset sweep needs 2**{m} entries; cutoff is 2**{SUPPORT_LIMIT_BITS}")
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
