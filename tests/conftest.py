"""Shared brute-force oracles, literal references and instance helpers.

The brute-force oracles deliberately avoid the library's solvers:
matchings are enumerated subset by subset and expectations are summed
outcome by outcome, so agreement is meaningful evidence.  The `literal_*`
references are the one-at-a-time loops that batched library paths
replaced, with the same arithmetic, so the batched results must equal
them bit for bit.  `reference_primal_dual` is Kuhn's primal-dual method
on one realized bipartite graph at a time, the decisions and floating
operations the library's lockstep takes for many rows at once, so every
bipartite value, matching and cover must equal its bits.
"""

import itertools
import math
from bisect import insort

import numpy as np

from matchgap import Instance, PotentialEdge, SampledGraph, fractional_value
from matchgap.gallery import _STREAM_KEEP, _STREAM_PROB, _STREAM_WEIGHT, _all_pairs
from matchgap.kernels import (_inv_max_kernel, _unit_partitions, poisson_binomial_pmf,
                              poisson_binomial_pmfs)
from matchgap.matching import (_TIGHT, FractionalVertexCover, max_weight_matching_general,
                               value_solver)
from matchgap.rng import uniforms


def brute_matching_value(inst, realized):
    """Maximum matching weight by enumerating every matching recursively."""
    idx = [j for j in range(inst.num_edges) if realized[j]]
    ends = inst.endpoints
    best = 0.0

    def rec(pos, used, acc):
        nonlocal best
        if acc > best:
            best = acc
        for k in range(pos, len(idx)):
            j = idx[k]
            a, b = int(ends[j][0]), int(ends[j][1])
            if a not in used and b not in used:
                rec(k + 1, used | {a, b}, acc + inst.edges[j].w)

    rec(0, frozenset(), 0.0)
    return best


def brute_expected_matching(inst):
    """E[max matching weight] by summing over every outcome of the edges."""
    total = 0.0
    for outcome in itertools.product([False, True], repeat=inst.num_edges):
        p = 1.0
        for j, bit in enumerate(outcome):
            p *= inst.edges[j].x if bit else 1.0 - inst.edges[j].x
        if p > 0.0:
            total += p * brute_matching_value(inst, outcome)
    return total


def brute_inv_max_expectation(y_probs, z_probs):
    """E[1/(1+max(Y,Z))] by enumerating all joint Bernoulli outcomes."""
    total = 0.0
    for ybits in itertools.product([0, 1], repeat=len(y_probs)):
        py = np.prod([p if b else 1 - p for p, b in zip(y_probs, ybits)]) if y_probs else 1.0
        for zbits in itertools.product([0, 1], repeat=len(z_probs)):
            pz = np.prod([p if b else 1 - p for p, b in zip(z_probs, zbits)]) if z_probs else 1.0
            total += py * pz / (1 + max(sum(ybits), sum(zbits)))
    return float(total)


def convolve_pmf(probs):
    """Poisson-binomial pmf by one np.convolve per coordinate."""
    pmf = np.ones(1)
    for p in probs:
        pmf = np.convolve(pmf, [1.0 - p, p])
    return pmf


def loop_gain_margins(probs):
    """Gain coefficients g_1..g_{max(m, 3)} and margins g_2/2 - g_j/j
    (j = 3..) of one vector, one np.sum per coefficient."""
    pmf = convolve_pmf(probs)
    j_max = max(len(probs), 3)
    g = np.empty(j_max)
    for j in range(1, j_max + 1):
        i = np.arange(min(j, len(pmf)))
        g[j - 1] = np.sum(pmf[i] * (1.0 / (1.0 + i) - 1.0 / (1.0 + j)))
    return g, np.array([g[1] / 2.0 - g[j - 1] / j for j in range(3, j_max + 1)])


def poisson_pair_expectation(lam, cutoff):
    """E[1/(1+max(Y,Z))] for Y, Z ~ Poisson(lam), each cut after `cutoff`,
    summed outcome pair by outcome pair: the oracle for the series P_t."""
    p = [math.exp(-lam) * lam ** k / math.factorial(k) for k in range(cutoff + 1)]
    return sum(p[i] * p[j] / (1 + max(i, j))
               for i in range(cutoff + 1) for j in range(cutoff + 1))


def bits(a):
    """The float64 bit patterns of `a`, for exact comparisons."""
    return np.asarray(a, dtype=np.float64).view(np.uint64).tolist()


def block_bytes(inst, rows):
    """The ``sampling.BLOCK_BYTES`` that gives `inst` blocks of `rows` rows:
    a block's (rows, m) draws and (rows, V) per-vertex arrays fit in it."""
    return rows * 8 * max(inst.num_edges, inst.total_vertices, 1)


def path_instance(weights, kind="bipartite"):
    """A path with given edge weights, probabilities 1, as an Instance."""
    edges = []
    if kind == "bipartite":
        # u0-v0-u1-v1-... : edge 2i = (ui, vi), edge 2i+1 = (u(i+1), vi)
        n = len(weights) // 2 + 2
        for i, w in enumerate(weights):
            if i % 2 == 0:
                edges.append(PotentialEdge(i // 2, i // 2, 1.0, float(w)))
            else:
                edges.append(PotentialEdge(i // 2 + 1, i // 2, 1.0, float(w)))
        return Instance("bipartite", n, tuple(edges))
    n = len(weights) + 1
    for i, w in enumerate(weights):
        edges.append(PotentialEdge(i, i + 1, 1.0, float(w)))
    return Instance("general", n, tuple(edges))


def cycle_instance(k, x=1.0, w=1.0):
    edges = tuple(PotentialEdge(i, (i + 1) % k, x, w) for i in range(k))
    return Instance("general", k, edges)


def literal_random_point(n, density, seed, kind="bipartite", weighted=True):
    """gen_random_point one seed at a time: one stream draw per column,
    the per-vertex rescaling on the instance's own vertices."""
    pairs = _all_pairs(n, kind)
    m = len(pairs)
    keep = uniforms(seed, _STREAM_KEEP, m) < density
    ends = pairs[keep]
    x = uniforms(seed, _STREAM_PROB, m)[keep]
    w = uniforms(seed, _STREAM_WEIGHT, m)[keep] if weighted else np.ones(len(ends))
    if len(ends):
        ids = ends.ravel()
        for _ in range(64):
            loads = np.zeros(2 * n if kind == "bipartite" else n)
            np.add.at(loads, ids, np.repeat(x, 2))
            if loads.max() <= 1.0:
                break
            x /= np.maximum(1.0, np.maximum(loads[ends[:, 0]], loads[ends[:, 1]]))
    return Instance.from_arrays(kind, n, ends, x, w)


def literal_derivative_sides(g):
    """lhs and rhs of sum_e x_e (nu(G + e) - nu(G - e)) + 2 nu(G) >=
    sum_e x_e w_e for one realized graph, both graphs of every edge solved
    from SampledGraph copies."""
    inst = g.instance
    lhs = 2.0 * max_weight_matching_general(g)
    for j, xj in enumerate(inst.x.tolist()):
        if xj == 0.0:
            continue
        with_e = np.array(g.realized)
        with_e[j] = True
        without_e = np.array(g.realized)
        without_e[j] = False
        gain = (max_weight_matching_general(SampledGraph(inst, with_e))
                - max_weight_matching_general(SampledGraph(inst, without_e)))
        lhs += xj * gain
    return lhs, fractional_value(inst)


def literal_equal_split(x0, m, grid_step, c):
    """verify_equal_split's least margin and its (sum y, sum z) bucket,
    one bucket at a time: the first strictly smaller margin wins."""
    max_units = int(math.floor((1.0 - x0) / grid_step + 1e-9))
    all_vecs, offsets = [], []
    for s in range(max_units + 1):
        vecs = _unit_partitions(s, m, s)
        offsets.append((len(all_vecs), len(all_vecs) + len(vecs)))
        all_vecs += vecs
    pmfs = poisson_binomial_pmfs(np.array(all_vecs) * grid_step)
    kernel = _inv_max_kernel(m + 1)
    table = pmfs @ kernel @ pmfs.T
    quads = np.array([c * (x0 * sum((u * grid_step) ** 2 for u in vec)
                           - x0 ** 2 * sum(u * grid_step for u in vec)) for vec in all_vecs])
    eq_pmfs, eq_quads = [], []
    for s in range(max_units + 1):
        eq = [s * grid_step / m] * m
        eq_pmfs.append(poisson_binomial_pmf(eq))
        eq_quads.append(c * (x0 * sum(v ** 2 for v in eq) - x0 ** 2 * s * grid_step))
    worst_margin, worst_bucket = math.inf, None
    for sy, (ya, yb) in enumerate(offsets):
        for sz, (za, zb) in enumerate(offsets):
            bucket = x0 * table[ya:yb, za:zb] + quads[ya:yb, None] + quads[None, za:zb]
            f_eq = (x0 * float(eq_pmfs[sy] @ kernel @ eq_pmfs[sz])
                    + eq_quads[sy] + eq_quads[sz])
            margin = float(bucket.min()) - f_eq
            if margin < worst_margin:
                worst_margin, worst_bucket = margin, (sy * grid_step, sz * grid_step)
    return worst_margin, worst_bucket


def batch_of(lists):
    """The ascending realized edge index arrays `lists`, one per sample, as
    one batch (sid, edge, count) that `sampling.sample_values` hands its
    solver."""
    sid = np.repeat(np.arange(len(lists)), [len(idx) for idx in lists])
    edge = np.concatenate([np.asarray(idx, dtype=np.int64) for idx in lists] or [[]])
    return sid, edge.astype(np.int64), len(lists)


def flat_block(block):
    """A (rows, m) boolean realization block as (flat, rows) of
    `sampling.realization_blocks`."""
    block = np.asarray(block, dtype=bool)
    return np.flatnonzero(block), len(block)


def reference_cover(g):
    """`reference_primal_dual`'s cover of the realized graph `g`."""
    return FractionalVertexCover(reference_primal_dual(g.instance, g.edge_indices)[2])


def solve_batches(inst, batches):
    """The value arrays `value_solver(inst)` yields for `batches`, one a
    batch, as a list."""
    return list(value_solver(inst)(batches))


def reference_primal_dual(inst, idx):
    """Kuhn's primal-dual method on the realized edges `idx` (ascending) of
    the bipartite `inst`: (matched edges, value, 2n cover).

    Left vertices start at their largest incident weight, right vertices
    at zero; roots are taken in vertex order.  The value is the matched
    weights added to 0.0 in left-vertex order; the cover is the potentials
    laid out by vertex, left vertices without a realized edge at zero,
    negatives and NaN at 0.0 (the values of max(0.0, v), -0.0 included).
    """
    n = inst.n
    idx = np.asarray(idx, dtype=np.int64)
    ends, weights = inst.endpoints[idx], inst.w[idx].tolist()
    adj, y_left = {}, {}
    for u, arc in zip(ends[:, 0].tolist(),
                      zip((ends[:, 1] - n).tolist(), weights, range(len(idx)))):
        if u in adj:
            adj[u].append(arc)
            if arc[1] > y_left[u]:
                y_left[u] = arc[1]
        else:
            adj[u] = [arc]
            y_left[u] = arc[1]
    y_right = [0.0] * n
    mate_left = {}           # u -> (v, edge position)
    mate_right = [None] * n  # v -> (u, edge position), or None
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
            _reference_phase(root, adj, y_left, y_right, mate_left, mate_right)
    value = 0.0
    for u in sorted(mate_left):
        value += weights[mate_left[u][1]]
    y = np.zeros(2 * n)
    y[list(y_left)] = list(y_left.values())
    y[n:] = y_right
    edges = tuple(sorted(int(idx[j]) for _, j in mate_left.values()))
    return edges, value, np.where(y > 0.0, y, 0.0)


def _reference_phase(root, adj, y_left, y_right, mate_left, mate_right):
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
    tree_left = [root]   # sorted
    scan = {root: 0}     # u -> next adjacency position
    tree_right = {}      # v -> (parent u, edge)
    parent_left = {}     # u -> matched v it entered from
    least = {}           # v -> least slack since the adjustment
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
                _reference_flip(root, v, u, j, tree_right, mate_left, mate_right)
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
            _reference_flip(root, v, u, j, tree_right, mate_left, mate_right)
            return
        least.clear()
        scan = dict.fromkeys(tree_left, 0)


def _reference_flip(root, v, u, j, tree_right, mate_left, mate_right):
    # Make (u, v) matched, then re-match the freed vertices up the tree.
    while True:
        prev = mate_left.get(u)
        mate_left[u] = (v, j)
        mate_right[v] = (u, j)
        if u == root:
            return
        v = prev[0]
        u, j = tree_right[v]
