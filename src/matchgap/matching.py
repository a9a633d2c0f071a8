"""Exact matching solvers and fractional vertex covers.

Bipartite graphs get Kuhn's primal-dual method, which returns the
maximum matching weight with an optimal fractional vertex cover: vertex
potentials y >= 0 with y_u + y_v >= w_e on every realized edge and
||y||_1 equal to the matching weight (Koenig-Egervary duality).  Its one
implementation, `_lockstep`, runs many realized graphs at once:
`max_weight_matching_bipartite` is a run of one, and the mass
certificates' covers one run a group of blocks (`cover_solver`).
Monte Carlo values of bipartite samples are found a whole batch at a
time by degree-1 peeling in numpy: unweighted by Karp-Sipser's rule,
with augmenting paths for what peeling leaves; weighted by the rule
that shifts a leaf's weight onto its centre's other edges, with the
samples peeling leaves unsolved or cannot decide beyond its tolerance
pooled across batches into lockstep runs, so the values are the
primal-dual's bits.
General graphs get exhaustive search, exact at small sizes only.

`matching_values_over_subsets` evaluates the maximum matching weight of
every subset of the potential edges in one vectorized sweep; it is the
workhorse behind exact expectations and the local derivative check.
"""

from __future__ import annotations

from functools import partial
from itertools import starmap
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .model import FrozenRecord, Instance
from .sampling import (SampledGraph, batch_rows, block_groups, check_support, column_sums,
                       join_blocks, split_flat)

#: Exact general search accepts graphs within either cutoff.
GENERAL_VERTEX_CUTOFF = 20
GENERAL_EDGE_CUTOFF = 24

_TIGHT = 1e-12


class MatchingCutoffExceeded(RuntimeError):
    """Exact search was requested beyond the documented cutoffs."""


class Matching(NamedTuple):
    """A matching as a tuple of realized edge indices plus its weight."""

    edges: tuple[int, ...]
    value: float


class FractionalVertexCover(FrozenRecord):
    """Nonnegative vertex values, indexed by global vertex id."""

    _fields = ("y",)

    def __init__(self, y: np.ndarray):
        arr = np.asarray(y, dtype=np.float64)
        arr.setflags(write=False)
        vars(self)["y"] = arr

    @property
    def norm(self) -> float:
        return float(self.y.sum())


def max_weight_matching_bipartite(g: SampledGraph):
    """Maximum-weight matching of a realized bipartite graph with its dual.

    Returns (Matching, value, FractionalVertexCover) of a one-row lockstep
    run.  The cover is the final potential vector of the primal-dual
    phases: feasible on realized edges, zero on isolated and exposed
    vertices, total equal to the matching weight.  Ties between optimal
    matchings and covers are broken deterministically by vertex and edge
    order.
    """
    inst = g.instance
    if inst.kind != "bipartite":
        raise TypeError("bipartite solver requires a bipartite instance")
    y, values, edges = _lockstep_values(_arc_order(inst), inst.n, g.edge_indices, 1)
    value, cover = float(values[0]), np.where(y[0] > 0.0, y[0], 0.0)
    return Matching(tuple(np.sort(edges).tolist()), value), value, FractionalVertexCover(cover)


def _arc_order(inst: Instance):
    """The bipartite `inst`'s edges in (left vertex, edge index) order, a
    lockstep row's: (order, rank, left, right, w), edge j at position
    rank[j], and per position its left, right vertex (0..n-1) and weight."""
    left, right = inst.endpoints.T
    order = np.argsort(left, kind="stable")
    return order, np.argsort(order), left[order], right[order] - inst.n, inst.w[order]


def _lockstep_block(arcs, n: int, flat: np.ndarray, rows: int):
    """`_lockstep` on a block (flat, rows) of `sampling.realization_blocks`
    with `_arc_order`'s `arcs`: its potentials and mates, then each
    realized arc's row and position in `arcs`, in the lockstep's order."""
    _, rank, left, right, w = arcs
    m = max(len(rank), 1)
    row, col = split_flat(flat, m)
    # the arcs in (row, left vertex, edge index) order
    row, col = split_flat(np.sort(row * m + rank[col]), m)
    return (*_lockstep(row, left[col], right[col], w[col], rows, n), row, col)


def _lockstep_values(arcs, n: int, flat: np.ndarray, rows: int):
    """(potentials, values, matched edge indices) of a block by
    `_lockstep_block`, each row's matched weights summed by `_left_sums`."""
    y, mate, row, col = _lockstep_block(arcs, n, flat, rows)
    order, _, left, right, w = arcs
    u, base = left[col], row * n
    hit = mate[base + u] == base + right[col]
    col = col[hit]
    return y, _left_sums(row[hit], u[hit], w[col], rows, n), order[col]


def _left_sums(row, left, w, rows: int, n: int) -> np.ndarray:
    """Per row, the matched weights `w` laid out by left vertex and added to
    0.0 in left-vertex order, which fixes every bipartite value's last bits.
    A row's weights fill a column of the table, so the sequential sum runs
    down axis 0, adding contiguous table rows, not along a short row each."""
    table = np.zeros((n + 1, rows))
    table.reshape(-1)[(left + 1) * rows + row] = w  # one flat index: half a 2-d scatter's time
    return column_sums(table)


def _lockstep(row: np.ndarray, left: np.ndarray, right: np.ndarray, wt: np.ndarray,
              count: int, n: int):
    """Kuhn's primal-dual method on `count` rows at once: the realized
    edges of row k are those with ``row == k``, with left vertex `left`,
    right vertex `right` (both 0..n-1) and weight `wt`, listed in (row,
    left vertex, edge index) order.  Returns the unclipped (count, 2n)
    potentials and the flat mates: entry k * n + u is the mate k * n + v
    of row k's left vertex u, or -1.

    Left vertices start at their largest incident weight, right ones at
    zero.  The rows form one disjoint union, row k's vertices offset by
    k * n, whose state lives in flat arrays: potentials, mates, tree
    marks and tree parents.  Each step takes, for every active row, one
    decision of the method in masked array passes over the tree-left
    vertices' arcs.  Per-row least values are scatter minima
    (`np.minimum.at`) into arrays allocated once per call; no step sorts:

    - the entering arc is the first tight arc, (y_u + y_v) - w <=
      ``_TIGHT``, in edge order among the arcs to right vertices outside
      the tree: the next tree vertex, or, when its right end is free,
      the augmenting path flipped back to the root;
    - a row without one adjusts by delta = min(slack, floor), the least
      (y_u + y_v) - w over those arcs and the least tree-left potential,
      and releases the first tree-left vertex in vertex order at or
      below ``_TIGHT`` when floor <= slack: that vertex may stay exposed
      without violating complementary slackness;
    - a row whose phase ended takes its next roots in vertex order that
      are unmatched with potential above ``_TIGHT``: while a root's first
      tight arc reaches a right vertex that is free and no earlier root's
      of the run, the root is matched there, with no potential change
      meanwhile; the first other root grows a tree in the same step.  A
      right end's earliest root is the scatter minimum of the vertex ids
      of the roots that reach it, and a row's growing root that of its
      other roots.  A row with no root left is done.

    The per-row method, the tests' reference (``tests/conftest.py``),
    skips only arcs whose slack or tree mark cannot have changed since it
    read them, so each row takes its decisions through the same floating
    operations: its potentials and mates are that method's bits (signed
    zeros aside, which no comparison, nonzero result or cover tells apart).
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
            # floor <= slack: the first vertex at or below _TIGHT is released
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
    return np.concatenate((yl.reshape(count, n), yr.reshape(count, n)), axis=1), mate_l


def _firsts(keys: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in `keys`."""
    first = np.empty(len(keys), dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


def _flip_all(u, v, root, mate_l, mate_r, tree_r) -> None:
    # flip the augmenting paths ending in (u, v) back to their roots, one
    # link of every path a pass
    while len(u):
        prev = mate_l[u]
        mate_l[u] = v
        mate_r[v] = u
        go = u != root
        v, root = prev[go], root[go]
        u = tree_r[v]


def max_weight_matching_general(g: SampledGraph) -> float:
    """Exact maximum matching weight of a realized graph, any kind.

    Uses memoized search over covered-vertex sets when at most
    GENERAL_VERTEX_CUTOFF vertices carry edges, falling back to
    branch-and-bound over edges up to GENERAL_EDGE_CUTOFF edges.
    """
    return _general_solver(g.instance)(g.edge_indices)


def _general_solver(inst: Instance) -> Callable[[np.ndarray], float]:
    """Exact search, as a function of the realized edges: the vertex DP on
    the vertices they touch, relabelled 0..k-1 in vertex order, or
    branch-and-bound past GENERAL_VERTEX_CUTOFF of them."""
    ends, w = inst.endpoints, inst.w

    def solve(idx) -> float:
        pairs = ends[idx].tolist()
        verts = sorted({v for e in pairs for v in e})
        lookup = {v: i for i, v in enumerate(verts)}
        edges = [(lookup[a], lookup[b], x) for (a, b), x in zip(pairs, w[idx].tolist())]
        if len(verts) <= GENERAL_VERTEX_CUTOFF:
            return _nu_vertex_dp(len(verts), edges)
        if len(edges) <= GENERAL_EDGE_CUTOFF:
            return _nu_edge_branch(edges)
        raise MatchingCutoffExceeded(
            f"exact search cutoff exceeded: {len(verts)} vertices, {len(edges)} edges")
    return solve


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


#: Peeling hands over to augmenting paths once a round matches fewer than
#: this share of the edges left: on long chains a round matches one edge
#: per end, and the rounds alone would cost quadratic time.
_PEEL_MIN_SHARE = 1.0 / 64.0


def _cardinalities(cols: np.ndarray, nv: int, sid: np.ndarray, edge: np.ndarray,
                   count: int) -> np.ndarray:
    """Maximum matching cardinality of each sample of a batch (`sid`,
    `edge`, `count`, as `sampling.sample_values` gives it) of the (2, m)
    bipartite endpoint columns `cols`, whose graphs have `nv` vertices, as
    a float64 array.

    The samples form one disjoint union, sample k's vertices offset by
    k * nv, pruned in rounds by Karp and Sipser's degree-1 rule: every
    degree-1 vertex is matched to its neighbour, one leaf per neighbour
    (any one: a value is a count).  A round's pendant edges share no
    vertex, and each stays pendant while the others are matched, so the
    rule keeps the matching maximum.  What peeling leaves (vertices of
    degree two or more, or long chains once a round falls below
    ``_PEEL_MIN_SHARE``) gets augmenting paths.
    """
    size = count * nv
    base = sid * nv
    u, v = cols[0][edge] + base, cols[1][edge] + base
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
    every kept leaf's lead over its centre's others and every shifted
    weight exceed the margin d as computed.  By induction over the
    reductions, a matching either matches each centre as the peeler does
    or loses that reduction's margin: matching the centre to a lighter
    leaf, through an edge whose shifted weight is below 0, or not at all
    (which loses the kept leaf weight).  A computed shifted weight is off
    by e <= V^3 2^-54 W (at most V rounds, as each removes a leaf for
    good, of at most V^2 / 2 subtractions, each within 2^-53 W), so in
    exact arithmetic every other matching weighs less than nu - (d - 2e).
    The primal-dual (`_lockstep`) ends with each left vertex matched
    through an edge of slack <= _TIGHT or exposed at potential <= _TIGHT,
    so its matching weighs at least nu - n _TIGHT - r, where r <= V^3
    2^-55 W is the rounding of at most V^2 / 4 dual adjustments to each
    of V potentials.  As d - 2e > n _TIGHT + r, the primal-dual's
    matching is the peeler's and, summed by `_left_sums`, has the same
    bits.
    """
    nv = inst.total_vertices
    return nv * (_TIGHT + nv * nv * 2.0 ** -50 * float(inst.w.max()))


def _weighted_values(inst: Instance, margin: float, arcs, batches) -> Iterator[np.ndarray]:
    """Maximum matching weight of each sample of each batch (sid, edge,
    count) of `sampling.sample_values` of the weighted bipartite `inst`,
    as one float64 array a batch, in order, bit for bit the primal-dual's.

    Each batch goes through `_peel`; its undecided samples form a block,
    carrying the batch's values and fallback mask, pooled
    (`sampling.block_groups`) into lockstep runs on `arcs` (`_arc_order`)
    of at least `sampling.batch_rows` rows, whose values fill the masks.
    """
    n, m = inst.n, max(inst.num_edges, 1)

    def undecided():
        for sid, edge, count in batches:
            values, fell = _peel(inst, margin, sid, edge, count)
            # the undecided samples' edges, each sample renumbered by its rank
            on = fell[sid]
            yield (np.cumsum(fell) - 1)[sid[on]] * m + edge[on], fell.sum(), values, fell

    for pool in block_groups(undecided(), batch_rows(inst)):
        solved = _lockstep_values(arcs, n, *join_blocks(pool, m))[1]
        for _, rows, values, fell in pool:
            values[fell], solved = solved[:rows], solved[rows:]
            yield values


def _peel(inst: Instance, margin: float, sid: np.ndarray, edge: np.ndarray, count: int):
    """The values of a batch (`sid`, `edge`, `count`) of the weighted
    bipartite `inst` that weighted degree-1 peeling decides, as a float64
    array, and the mask of the samples it leaves undecided (any value).

    The samples form one disjoint union, sample k's vertices offset by
    k * 2n, pruned in rounds of the weighted degree-1 rule: with leaf l on
    centre c, nu(G) = w(l, c) + nu(G'), where G' drops c's leaves and
    lowers c's other edges by w(l, c), dropping those left <= 0.  A round
    keeps one heaviest leaf edge per centre, the one whose write stands
    (a lone edge's centre is its right end), and shifts the edges at a
    centre by the left end's leaf, then the right end's.  Unwinding the
    rounds in reverse, a centre still free takes its leaf edge, and the
    matched weights are summed by `_left_sums`, as the primal-dual's are.

    A sample is left undecided when any edge survives the rounds (a
    cycle, or peeling stopped below ``_PEEL_MIN_SHARE``), when a realized
    or shifted weight is within `margin` (see `_peel_margin`) of 0, or
    when another leaf of a centre is within `margin` of its heaviest (a
    tie always is, so which tied leaf is kept never matters): there the
    primal-dual may pick another matching of near-equal weight, or add
    the same one to other last bits.
    """
    n, nv = inst.n, inst.total_vertices
    first, second = inst.endpoints.T
    left, base = first[edge], sid * nv
    u, v = left + base, second[edge] + base
    wt = inst.w[edge]
    fallback = np.zeros(count, dtype=bool)
    # a sample with a realized weight within the margin falls back, yet peels
    # in round 1 beside the others, on vertices of its own, rather than cost
    # a pass over every edge to drop it first: its value is overwritten, and
    # its edges count in round 1's share for the ``_PEEL_MIN_SHARE`` stop
    fallback[sid[wt <= margin]] = True
    pos, s = np.arange(len(edge)), sid  # each edge's position and sample id ride along
    size = count * nv
    rounds = []  # per round: centres, their leaves, kept edges' positions in the batch
    top = np.zeros(size)  # a centre's heaviest leaf
    # allocated once, as a fresh per-vertex array costs its pages' faults:
    # the live vertices' degrees, counted from 0 each round, then each
    # centre's kept edge
    deg = np.zeros(size, np.int64)
    while len(u):
        np.add.at(deg, u, 1)
        np.add.at(deg, v, 1)
        leaf_u = deg[u] == 1
        rest = ~(leaf_u | (deg[v] == 1))
        pendant = np.flatnonzero(~rest)
        if not len(pendant):
            break
        centre = np.where(leaf_u[pendant], v[pendant], u[pendant])
        leaf_w = wt[pendant]
        # a weight within the margin only peels in a sample falling back, so
        # 0.0 stands for "no leaf"
        np.maximum.at(top, centre, leaf_w)
        lead = top[centre]
        heaviest = leaf_w == lead
        # one heaviest leaf per centre, the one whose write stands (a tie falls back)
        deg[centre[heaviest]] = pendant[heaviest]
        kept = deg[centre] == pendant
        fallback[s[pendant[~kept & (lead - leaf_w <= margin)]]] = True
        best, centre = pendant[kept], centre[kept]
        rounds.append((centre, u[best] + v[best] - centre, pos[best]))
        few = len(best) < _PEEL_MIN_SHARE * len(u)
        # the edges that are not pendant take the shifts, and keep those left > 0
        r = np.flatnonzero(rest)
        u, v, wt, pos, s = u[r], v[r], wt[r], pos[r], s[r]
        wt = wt - top[u] - top[v]
        top[centre] = 0.0
        fallback[s[np.abs(wt) <= margin]] = True
        keep = np.flatnonzero((wt > 0.0) & ~fallback[s])
        u, v, wt, pos, s = u[keep], v[keep], wt[keep], pos[keep], s[keep]
        deg[u] = 0
        deg[v] = 0
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
    return _left_sums(sid[at], left[at], inst.w[edge[at]], count, n), fallback


def value_solver(inst: Instance) -> Callable[[Iterable], Iterator[np.ndarray]]:
    """The solver `matching_value` applies to realizations of `inst`: it
    takes an iterable of batches (sid, edge, count) of
    `sampling.sample_values` and yields each batch's values as a float64
    array, in order.  Bipartite batches peel together: unweighted
    ones by `_cardinalities`, weighted ones by `_weighted_values`, which
    pools the samples it cannot decide into lockstep runs.  General
    samples get exact search one at a time.  The solver reads the
    instance's endpoints and weights, never its probabilities."""
    # the peelers and exact search gather the realized edges per batch or
    # sample: per-instance lists of a 10^6-edge instance cost seconds and
    # several times the instance's memory
    if inst.kind == "bipartite":
        if inst.is_unweighted:
            return partial(starmap, partial(_cardinalities, inst.endpoints.T, inst.total_vertices))
        return partial(_weighted_values, inst, _peel_margin(inst), _arc_order(inst))
    solve = _general_solver(inst)

    def values(sid, edge, count):
        # sample k holds entries cuts[k]..cuts[k + 1] - 1 of the batch
        cuts = np.searchsorted(sid, np.arange(count + 1)).tolist()
        return np.fromiter((solve(edge[a:b]) for a, b in zip(cuts, cuts[1:])), np.float64, count)
    return partial(starmap, values)


def cover_solver(inst: Instance) -> Callable[[np.ndarray, int], np.ndarray]:
    """The covers of `max_weight_matching_bipartite` for realizations of a
    bipartite `inst`, as a function of a block (flat, rows) of
    `sampling.realization_blocks`: row k of the (rows, 2n) result is the
    cover of block row k, from one lockstep run that reads no mate."""
    arcs, n = _arc_order(inst), inst.n

    def covers(flat: np.ndarray, rows: int) -> np.ndarray:
        y = _lockstep_block(arcs, n, flat, rows)[0]
        return np.where(y > 0.0, y, 0.0)
    return covers


def matching_value(g: SampledGraph) -> float:
    """Maximum matching weight via the solver appropriate to the kind: a
    batch of one for `value_solver`."""
    idx = g.edge_indices
    return float(next(value_solver(g.instance)([(np.zeros_like(idx), idx, 1)]))[0])


def matching_values_over_subsets(inst: Instance) -> np.ndarray:
    """Maximum matching weight of every potential-edge subset: entry
    ``mask`` is the matching weight of the graph whose realized edges are
    the set bits of ``mask``, as `_subset_values` of the instance's edges,
    a batch of one."""
    return _subset_values(inst.endpoints[None], inst.w[None])[0]


def _subset_values(ends: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Maximum matching weight of every subset of the edges of each graph
    of a batch: row k of the result is graph k's, with edges ends[k]
    ((m, 2) endpoints) and weights w[k], indexed by bitmask (bit j = edge
    j), by the recurrence on the highest edge (drop it, or take it and
    restrict to the lower edges disjoint from it) vectorized over all
    lower masks and graphs.  Rounding is monotone, so entry ``mask`` is the
    maximum over its matchings of their weights summed highest edge
    outermost, w_top + (... + (w_1 + 0.0)), whatever the batch.
    """
    rows, m = w.shape
    check_support(m)
    bit = 1 << np.arange(m)
    a, b = ends[..., :1], ends[..., 1:]
    at, bt = np.swapaxes(a, 1, 2), np.swapaxes(b, 1, 2)
    apart = (a != at) & (a != bt) & (b != at) & (b != bt)
    compat = apart @ bit & bit - 1  # bit i of [k, j]: edge i < j of graph k disjoint from j
    nu = np.zeros((rows, 1 << m))
    lower, first = np.arange(1 << m), (np.arange(rows) << m)[:, None]  # nu.ravel()[first + mask]
    for j in range(m):
        h = 1 << j
        np.maximum(nu[:, :h], w[:, j:j + 1] + nu.ravel()[first + (lower[:h] & compat[:, j:j + 1])],
                   out=nu[:, h:2 * h])
    return nu
