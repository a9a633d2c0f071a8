"""Exact matching solvers and fractional vertex covers.

Bipartite graphs get a primal-dual solver that returns the maximum
matching weight together with an optimal fractional vertex cover: vertex
potentials y >= 0 with y_u + y_v >= w_e on every realized edge and
||y||_1 equal to the matching weight (Koenig-Egervary duality).  Its
per-sample core is `_primal_dual`.
Monte Carlo values of bipartite samples are found a whole batch at a
time by degree-1 peeling in numpy: unweighted by Karp-Sipser's rule,
with augmenting paths for what peeling leaves; weighted by the rule
that shifts a leaf's weight onto its centre's other edges, with the
primal-dual for the samples peeling leaves unsolved or cannot decide
beyond its tolerance, so the values are the primal-dual's bits.
The covers of the mass certificates are found a realization block at a
time (`cover_solver`), whatever its size, by the primal-dual run in
lockstep over the disjoint union of its rows (`_lockstep`), and every
cover is the per-sample core's bits.
General graphs get exhaustive search, exact at small sizes only.

`matching_values_over_subsets` evaluates the maximum matching weight of
every subset of the potential edges in one vectorized sweep; it is the
workhorse behind exact expectations.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .model import Instance
from .sampling import SampledGraph, check_support

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
    cover = _cover(y_left, y_right, inst.n)
    return Matching(edges, value), value, FractionalVertexCover(cover)


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


def _cover(y_left: dict, y_right: list, n: int) -> np.ndarray:
    """The 2n cover of `_primal_dual`'s potentials laid out by vertex,
    left vertices without a realized edge at zero, negatives and NaN at
    0.0 (the values of max(0.0, v), -0.0 included)."""
    y = np.zeros(2 * n)
    y[list(y_left)] = list(y_left.values())
    y[n:] = y_right
    return np.where(y > 0.0, y, 0.0)


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


def _lockstep(row: np.ndarray, left: np.ndarray, right: np.ndarray, wt: np.ndarray,
              count: int, n: int) -> np.ndarray:
    """Unclipped (count, 2n) potentials of `_primal_dual` on `count` rows
    at once: the realized edges of row k are those with ``row == k``, with
    left vertex `left`, right vertex `right` (both 0..n-1) and weight `wt`,
    listed in (row, left vertex, edge index) order.

    The rows form one disjoint union, row k's vertices offset by k * n,
    whose state lives in flat arrays: potentials, mates, tree marks and
    tree parents.  Each step takes, for every row still active, one
    decision of the method as `_run_phase` takes it, in masked array
    passes over the arcs of the tree-left vertices.  A row's least values
    are scatter minima (`np.minimum.at`) into per-row arrays allocated
    once per call, and no step sorts:

    - the entering arc is the first tight arc, (y_u + y_v) - w <=
      ``_TIGHT``, in edge order among the arcs to right vertices outside
      the tree: the next tree vertex, or, when its right end is free,
      the augmenting path flipped back to the root;
    - a row without one adjusts by delta = min(slack, floor), the least
      (y_u + y_v) - w over those arcs and the least tree-left potential,
      and releases the lowest tree-left vertex at or below ``_TIGHT``
      when floor <= slack;
    - a row whose phase ended takes its next roots in vertex order that
      are unmatched with potential above ``_TIGHT``: while a root's first
      tight arc reaches a right vertex that is free and no earlier root's
      of the run, the root is matched there, as `_primal_dual`'s first
      scan does (no potential changes meanwhile); the first other root
      grows a tree in the same step.  A right end's earliest root is the
      scatter minimum of the vertex ids of the roots that reach it, and a
      row's growing root that of its other roots.  A row with no root
      left is done.

    `_run_phase`'s scan positions and least slacks only skip arcs whose
    slack or tree mark cannot have changed since they were read, so each
    row takes the same decisions through the same floating operations:
    its potentials are `_primal_dual`'s bits (signed zeros aside, which
    no comparison, nonzero result or clipped cover tells apart).
    """
    size = count * n
    yl, yr = np.zeros(size), np.zeros(size)
    eu, ev = row * n + left, row * n + right
    head = _firsts(eu)                       # each left vertex's first arc
    pend = eu[head]
    if len(eu):
        yl[pend] = np.maximum.reduceat(wt, head.nonzero()[0])
    # per row, the left vertices after its last root that can be roots: no
    # such vertex is matched or in a tree, so its potential stays as is
    pend = pend[yl[pend] > _TIGHT]
    mate_l = np.full(size, -1)
    mate_r = np.full(size + 1, -1)           # slot `size`: the end of no tight arc, never free
    mate_r[size] = size
    tree_r = np.zeros(size, dtype=np.int64)  # tree-right v -> the left vertex it entered from
    par_l = np.zeros(size, dtype=np.int64)   # tree-left u -> the matched v it entered from
    in_l = np.zeros(size, dtype=bool)
    in_r = np.zeros(size, dtype=bool)
    entry = np.zeros(len(eu), dtype=bool)    # the arc each tree-right vertex entered by
    mark = np.zeros(size, dtype=bool)        # scratch: the roots being picked
    reach_of = np.zeros(size, dtype=np.int64)      # scratch: root -> end of its first tight arc
    earliest = np.zeros(size + 1, dtype=np.int64)  # scratch: right end -> its earliest root
    root = np.zeros(count, dtype=np.int64)   # each row's root, `size` once the row is done
    pick = np.ones(count, dtype=bool)        # rows between phases
    slack, floor = np.empty(count), np.empty(count)
    picking = True
    while True:
        if picking:
            # the candidate roots of the rows between phases, in vertex order
            prow = pend // n
            cu = pend[pick[prow]]
            mark[cu] = True
            a = mark[eu].nonzero()[0]       # their arcs
            mark[cu] = False
            au = eu[a]
            a = a[(yl[au] + yr[ev[a]]) - wt[a] <= _TIGHT]
            au = eu[a]
            first = _firsts(au)
            reach_of[cu] = size
            reach_of[au[first]] = ev[a[first]]
            reach = reach_of[cu]             # right end of each root's first tight arc
            # a root is matched at once when that end is free and no earlier
            # root's: each end keeps its earliest root
            earliest[reach] = size
            np.minimum.at(earliest, reach, cu)
            quick = (earliest[reach] == cu) & (mate_r[reach] < 0)
            # each row's first other root grows a tree; a row with none is done
            kc = cu // n
            root[pick] = size
            grow = ~quick
            np.minimum.at(root, kc[grow], cu[grow])
            rc = root[kc]
            run = cu < rc
            mate_l[cu[run]] = reach[run]
            mate_r[reach[run]] = cu[run]
            in_l[cu[cu == rc]] = True
            pend = pend[pend > root[prow]]
            pick[:] = False

        te = in_l[eu].nonzero()[0]           # arcs of tree-left vertices
        if not len(te):
            break
        tu, tv = eu[te], ev[te]
        tk = tu // n
        yt = yl[tu]
        s = (yt + yr[tv]) - wt[te]
        s[in_r[tv]] = np.inf                 # arcs into the tree take no part
        hit = (s <= _TIGHT).nonzero()[0]
        hit = hit[_firsts(tk[hit])]
        kt, u, v = tk[hit], tu[hit], tv[hit]
        in_r[v] = True
        tree_r[v] = u
        entry[te[hit]] = True
        mate = mate_r[v]
        free = mate < 0
        grown = ~free
        u2 = mate[grown]
        in_l[u2] = True
        par_l[u2] = v[grown]
        ended = kt[free]                     # augmented: these rows pick roots next
        pick[ended] = True
        _flip_all(u[free], v[free], root[ended], mate_l, mate_r, tree_r)

        # rows without a tight arc leaving the tree adjust
        slack.fill(np.inf)
        np.minimum.at(slack, tk, s)
        at = slack[tk] > _TIGHT
        i = (at & head[te]).nonzero()[0]     # their tree-left vertices
        if len(i):
            ki = tk[i]
            floor.fill(np.inf)
            np.minimum.at(floor, ki, yt[i])
            delta = np.minimum(slack, floor)
            y = yt[i] - delta[ki]
            yl[tu[i]] = y
            j = (at & entry[te]).nonzero()[0]
            yr[tv[j]] += delta[tk[j]]
            # floor <= slack: the lowest vertex at or below _TIGHT is released
            r = i[(y <= _TIGHT) & (floor <= slack)[ki]]
            r = r[_firsts(tk[r])]
            kr, ru = tk[r], tu[r]
            pick[kr] = True
            moved = ru != root[kr]
            ru, kr = ru[moved], kr[moved]
            mate_l[ru] = -1
            v = par_l[ru]
            _flip_all(tree_r[v], v, root[kr], mate_l, mate_r, tree_r)

        e = pick[tk].nonzero()[0]            # the trees of the rows whose phase ended
        picking = len(e) > 0
        if picking:
            in_l[tu[e]] = False
            in_r[tv[e]] = False
            entry[te[e]] = False
    return np.concatenate((yl.reshape(count, n), yr.reshape(count, n)), axis=1)


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in `keys`."""
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _flip_all(u, v, root, mate_l, mate_r, tree_r) -> None:
    # `_flip_to_root` for many rows at once, one link of every path a pass
    while len(u):
        prev = mate_l[u]
        mate_l[u] = v
        mate_r[v] = u
        go = u != root
        v, root = prev[go], root[go]
        u = tree_r[v]


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
    return _general_solver(g.instance)(g.edge_indices)


def _general_solver(inst: Instance) -> Callable[[np.ndarray], float]:
    """Exact search, as a function of the realized edges."""
    ends, w = inst.endpoints, inst.w
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


def _nu_vertex_dp_batch(nv, edges, graphs):
    """`_nu_vertex_dp` of `graphs` graphs on vertices 0..nv-1, bit for bit:
    an edge (a, b, w) weighs w[g] in graph g, -inf where g lacks it.  The
    recursion and sums are the same, with vector memo entries; a vertex
    without edges changes no sum."""
    nbrs: list[list[tuple[int, np.ndarray]]] = [[] for _ in range(nv)]
    for a, b, w in edges:
        nbrs[a].append((b, w))
        nbrs[b].append((a, w))
    memo = {0: np.zeros(graphs)}

    def best(avail: int) -> np.ndarray:
        cached = memo.get(avail)
        if cached is not None:
            return cached
        v = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << v)
        out = best(rest)
        for u, w in nbrs[v]:
            if rest >> u & 1:
                out = np.maximum(out, w + best(rest & ~(1 << u)))
        memo[avail] = out
        return out

    return best((1 << nv) - 1)


def _general_values(inst: Instance, idx: np.ndarray, present: np.ndarray) -> np.ndarray:
    """`_general_solver`'s value of each subgraph of the edges `idx` that a
    row of the bool `present` selects: one `_nu_vertex_dp_batch`, or past
    GENERAL_VERTEX_CUTOFF vertices one search each."""
    nv, edges = _compact(inst.endpoints[idx].tolist(),
                         np.where(present.T, inst.w[idx, None], -np.inf))
    if nv > GENERAL_VERTEX_CUTOFF:
        return np.array([_general_solver(inst)(idx[row]) for row in present])
    return _nu_vertex_dp_batch(nv, edges, len(present))


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


#: Peeling hands over to augmenting paths once a round matches fewer than
#: this share of the edges left: on long chains a round matches one edge
#: per end, and the rounds alone would cost quadratic time.
_PEEL_MIN_SHARE = 1.0 / 64.0


def _cardinalities(ends: np.ndarray, nv: int, sid: np.ndarray, edge: np.ndarray,
                   count: int) -> np.ndarray:
    """Maximum matching cardinality of each sample of a batch (`sid`,
    `edge`, `count`, as `sampling.realized_batches` gives it) of the (m, 2)
    bipartite endpoints `ends`, whose graphs have `nv` vertices, as a
    float64 array.

    The samples form one disjoint union, sample k's vertices offset by
    k * nv, peeled in rounds by Karp and Sipser's degree-1 rule: every
    degree-1 vertex is matched to its neighbour, one leaf per neighbour
    (any one: a value is a count).  A round's pendant edges share no
    vertex, and each stays pendant while the others are matched, so the
    rule keeps the matching maximum.  What peeling leaves (vertices of
    degree two or more, or long chains once a round falls below
    ``_PEEL_MIN_SHARE``) gets augmenting paths.
    """
    size = count * nv
    base = sid * nv
    u, v = ends[edge, 0] + base, ends[edge, 1] + base
    values = np.zeros(count, dtype=np.int64)
    matched = np.zeros(size, dtype=bool)
    owner = np.empty(size, dtype=np.int64)
    while len(u):
        deg = np.bincount(np.concatenate((u, v)), minlength=size)
        leaf_u = deg[u] == 1
        pendant = np.flatnonzero(leaf_u | (deg[v] == 1))
        if not len(pendant):
            break
        # one pendant edge per neighbour of a leaf, the one whose write
        # stands (an isolated edge's neighbour is its right vertex)
        nbr = np.where(leaf_u[pendant], v[pendant], u[pendant])
        owner[nbr] = pendant
        take = pendant[owner[nbr] == pendant]
        matched[u[take]] = True
        matched[v[take]] = True
        values += np.bincount(sid[take], minlength=count)
        few = len(take) < _PEEL_MIN_SHARE * len(u)
        keep = np.flatnonzero(~(matched[u] | matched[v]))
        u, v, sid = u[keep], v[keep], sid[keep]
        if few:
            break
    if len(u):
        mate = _kuhn_matching(zip(u.tolist(), v.tolist()))
        values += np.bincount(np.fromiter(mate, np.int64, len(mate)) // nv, minlength=count)
    return values.astype(np.float64)


def _sample_cuts(sid: np.ndarray, count: int) -> list:
    """Sample k of a batch holds entries cuts[k]..cuts[k+1]-1 of its
    ascending `sid`."""
    return np.searchsorted(sid, np.arange(count + 1)).tolist()


def _kuhn_matching(pairs) -> dict[int, int]:
    """A maximum matching of the bipartite graph on the (left, right) vertex
    `pairs`, as a map from each matched right vertex to its left mate."""
    adj: dict[int, list[int]] = {}
    for u, v in pairs:
        if u in adj:
            adj[u].append(v)
        else:
            adj[u] = [v]
    # A greedy pass matches every left vertex that has a free neighbour;
    # augmenting from the rest then gives a maximum matching, whatever
    # the starting matching.
    mate: dict[int, int] = {}  # right -> left
    rest = []
    for u in sorted(adj):
        for v in adj[u]:
            if v not in mate:
                mate[v] = u
                break
        else:
            rest.append(u)
    for u in rest:
        _augment(u, adj, mate)
    return mate


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


def _peel_margin(inst: Instance) -> float:
    """Least decision margin the weighted peeler trusts on samples of the
    bipartite `inst`: V * (_TIGHT + V^2 * 2^-50 * W), with V = 2n vertices
    and W the largest weight.

    Why it suffices.  Let every realized weight, every kept leaf weight,
    every best-leaf lead over its runner-up and every shifted weight
    exceed the margin d as computed.  By induction over the reductions,
    a matching either matches each centre as the peeler does or loses
    that reduction's margin: matching the centre to a lighter leaf,
    through an edge whose shifted weight is below 0, or not at all
    (which loses the kept leaf weight).  A computed shifted weight is off
    by e <= V^3 2^-54 W (at most V rounds, as each removes a leaf for
    good, of at most V^2 / 2 subtractions, each within 2^-53 W), so in
    exact arithmetic every other matching weighs less than nu - (d - 2e).
    The primal-dual ends with each left vertex matched through an edge of
    slack <= _TIGHT or exposed at potential <= _TIGHT, so its matching
    weighs at least nu - n _TIGHT - r, where r <= V^3 2^-55 W is the
    rounding of at most V^2 / 4 dual adjustments to each of V
    potentials.  As d - 2e > n _TIGHT + r, the primal-dual's matching is
    the peeler's and, summed in left-vertex order, has the same bits.
    """
    nv = inst.total_vertices
    return nv * (_TIGHT + nv * nv * 2.0 ** -50 * float(inst.w.max()))


def _weighted_values(inst: Instance, margin: float, sid: np.ndarray, edge: np.ndarray,
                     count: int) -> np.ndarray:
    """Maximum matching weight of each sample of a batch (`sid`, `edge`,
    `count`, as `sampling.realized_batches` gives it) of the weighted
    bipartite `inst`, as a float64 array, bit for bit the per-sample
    primal-dual's.

    The samples form one disjoint union, sample k's vertices offset by
    k * 2n, peeled in rounds of the weighted degree-1 rule: with leaf l on
    centre c, nu(G) = w(l, c) + nu(G'), where G' drops c's leaves and
    lowers c's other edges by w(l, c), dropping those left <= 0.  A round
    keeps each centre's heaviest leaf edge (the lowest position on a tie;
    a lone edge's centre is its right end) and shifts the edges at a
    centre by the left end's leaf, then the right end's.  Unwinding the
    rounds in reverse, a centre still free takes its leaf edge.  The
    matched weights, laid out by left vertex and summed left to right
    (adding 0.0 is exact), give `_matched_weight`'s bits.

    A sample goes whole to `_primal_dual` on its realized edges when any
    edge survives the rounds (a cycle, or peeling stopped below
    ``_PEEL_MIN_SHARE``), or when a realized weight, a shifted weight or a
    best leaf's lead over the runner-up is within `margin` (see
    `_peel_margin`) of 0: there the primal-dual may pick another matching
    of near-equal weight, or add the same one to other last bits.
    """
    n, nv = inst.n, inst.total_vertices
    left = inst.endpoints[edge, 0]
    u, v = left + sid * nv, inst.endpoints[edge, 1] + sid * nv
    wt = inst.w[edge]
    fallback = np.zeros(count, dtype=bool)
    fallback[sid[wt <= margin]] = True
    pos = np.flatnonzero(~fallback[sid])  # each edge's sample id rides along as s
    u, v, wt, s = u[pos], v[pos], wt[pos], sid[pos]
    size = count * nv
    rounds = []  # per round: centres, their leaves, kept edges' positions in the batch
    # per-vertex scratch, set at a round's centres and reset there after it
    top, runner_up, lowest = np.zeros(size), np.zeros(size), np.full(size, len(edge))
    while len(u):
        deg = np.bincount(np.concatenate((u, v)), minlength=size)
        leaf_u = deg[u] == 1
        pendant = np.flatnonzero(leaf_u | (deg[v] == 1))
        if not len(pendant):
            break
        centre = np.where(leaf_u[pendant], v[pendant], u[pendant])
        leaf_w = wt[pendant]
        # every weight left exceeds the margin, so 0.0 stands for "no leaf"
        np.maximum.at(top, centre, leaf_w)
        heaviest = leaf_w == top[centre]
        np.minimum.at(lowest, centre[heaviest], pendant[heaviest])
        kept = lowest[centre] == pendant
        np.maximum.at(runner_up, centre[~kept], leaf_w[~kept])
        best, centre = pendant[kept], centre[kept]
        fallback[s[best][top[centre] - runner_up[centre] <= margin]] = True
        rounds.append((centre, u[best] + v[best] - centre, pos[best]))
        rest = np.ones(len(u), dtype=bool)
        rest[pendant] = False
        wt = wt - top[u] - top[v]
        top[centre], runner_up[centre], lowest[centre] = 0.0, 0.0, len(edge)
        fallback[s[rest & (np.abs(wt) <= margin)]] = True
        few = len(best) < _PEEL_MIN_SHARE * len(u)
        keep = np.flatnonzero(rest & (wt > 0.0) & ~fallback[s])
        u, v, wt, pos, s = u[keep], v[keep], wt[keep], pos[keep], s[keep]
        if few:
            break
    fallback[s] = True

    matched = np.zeros(size, dtype=bool)
    taken = []
    for centre, leaf, at in reversed(rounds):
        free = ~matched[centre]
        matched[centre[free]] = True
        matched[leaf[free]] = True
        taken.append(at[free])
    at = np.concatenate(taken) if taken else np.empty(0, dtype=np.int64)
    table = np.zeros((count, n))
    table[sid[at], left[at]] = inst.w[edge[at]]
    values = np.cumsum(table, axis=1)[:, -1]
    cuts = _sample_cuts(sid, count)
    for k in np.flatnonzero(fallback).tolist():
        tails, arcs = _bipartite_arcs(inst, edge[cuts[k]:cuts[k + 1]])
        values[k] = _matched_weight(_primal_dual(range(len(arcs)), tails, arcs, n)[0], arcs)
    return values


def value_solver(inst: Instance) -> Callable[[np.ndarray, np.ndarray, int], np.ndarray]:
    """The solver `matching_value` applies to realizations of `inst`, as a
    function of a batch of samples: it takes a batch (sid, edge, count) of
    `sampling.realized_batches` and returns the values of its samples as a
    float64 array.
    Bipartite batches are peeled together: unweighted ones by
    `_cardinalities`, weighted ones by `_weighted_values`, which hands
    the samples it cannot decide to the primal-dual.  General samples
    get exact search one at a time.  The solver reads the instance's
    endpoints and weights, never its probabilities."""
    # the peelers and exact search gather the realized edges per batch or
    # sample: per-instance lists of a 10^6-edge instance cost seconds and
    # several times the instance's memory
    if inst.kind == "bipartite":
        if inst.is_unweighted:
            return partial(_cardinalities, inst.endpoints, inst.total_vertices)
        return partial(_weighted_values, inst, _peel_margin(inst))
    solve = _general_solver(inst)

    def values(sid, edge, count):
        cuts = _sample_cuts(sid, count)
        return np.fromiter((solve(edge[a:b]) for a, b in zip(cuts, cuts[1:])), np.float64, count)
    return values


def cover_solver(inst: Instance) -> Callable[[np.ndarray, int], np.ndarray]:
    """The covers of `max_weight_matching_bipartite` for realizations of a
    bipartite `inst`, as a function of a block (flat, rows) of
    `sampling.realization_blocks`: row k of the (rows, 2n) result is the
    cover of block row k, bit for bit.  All rows of a block, whatever
    their number, are solved together by `_lockstep`."""
    n, m = inst.n, max(inst.num_edges, 1)
    order = np.argsort(inst.endpoints[:, 0], kind="stable")
    rank = np.argsort(order)  # edge j's position in (left vertex, edge index) order
    left, right, wt = inst.endpoints[order, 0], inst.endpoints[order, 1] - n, inst.w[order]

    def covers(flat: np.ndarray, rows: int) -> np.ndarray:
        row, col = np.divmod(flat, m)
        # the arcs in (row, left vertex, edge index) order
        row, col = np.divmod(np.sort(row * m + rank[col]), m)
        y = _lockstep(row, left[col], right[col], wt[col], rows, n)
        return np.where(y > 0.0, y, 0.0)
    return covers


def matching_value(g: SampledGraph) -> float:
    """Maximum matching weight via the solver appropriate to the kind: a
    batch of one for `value_solver`."""
    idx = g.edge_indices
    return float(value_solver(g.instance)(np.zeros(len(idx), dtype=np.int64), idx, 1)[0])


def matching_values_over_subsets(inst: Instance) -> np.ndarray:
    """Maximum matching weight of every potential-edge subset.

    Entry ``mask`` is the matching weight of the graph whose realized
    edges are the set bits of ``mask``.  Computed by the recurrence on the
    highest edge (drop it, or take it and restrict to disjoint edges),
    vectorized over all lower masks.
    """
    m = inst.num_edges
    check_support(m)
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
