"""Shared brute-force oracles and instance helpers.

The oracles deliberately avoid the library's solvers: matchings are
enumerated subset by subset and expectations are summed outcome by
outcome, so agreement is meaningful evidence.
"""

import itertools
import math

import numpy as np

from matchgap import Instance, PotentialEdge


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
