"""The bipartite primal-dual solver against recorded outputs, bit for bit.

`solver_fixture.json` holds about 200 random realized bipartite graphs
with the value repr, matched edges and cover reprs that
`max_weight_matching_bipartite` returned for each when the fixture was
recorded.  Weight families include tie-heavy ones ({0.1, 0.2, 0.3},
{1, 2}, all 0.5), where the order in which tight edges are taken decides
the matching and the cover, and tiny ones (random times 2**-40 or
2**-38), where the absolute tightness threshold decides.  Edges are
listed in shuffled order, so edge index order differs from vertex order.
Larger graphs (up to 40 vertices a side) are checked against
`_reference`, the same method rescanning the whole tree at every step.

Re-record with ``PYTHONPATH=src python tests/test_solver_fixture.py``
only after arguing an intended change of solver output.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from matchgap import Instance, PotentialEdge, SampledGraph, max_weight_matching_bipartite
from matchgap.matching import cover_solver, value_solver

FIXTURE = Path(__file__).with_name("solver_fixture.json")

WEIGHT_FAMILIES = {
    "random": lambda rng, k: rng.random(k),
    "tenths": lambda rng, k: rng.choice([0.1, 0.2, 0.3], k),
    "one_two": lambda rng, k: rng.choice([1.0, 2.0], k),
    "half": lambda rng, k: np.full(k, 0.5),
    "tiny_2^-40": lambda rng, k: rng.random(k) * 2.0 ** -40,
    "tiny_2^-38": lambda rng, k: rng.random(k) * 2.0 ** -38,
}
CASES_PER_FAMILY = 34


def _graph(case):
    inst = Instance("bipartite", case["n"],
                    tuple(PotentialEdge(u, v, 0.5, w) for u, v, w in case["edges"]))
    realized = np.zeros(inst.num_edges, dtype=bool)
    realized[case["realized"]] = True
    return SampledGraph(inst, realized)


def _record(g):
    matching, value, cover = max_weight_matching_bipartite(g)
    return {"value": repr(value), "matched": list(matching.edges),
            "cover": [repr(float(c)) for c in cover.y]}


# absent only while recording; the count test then fails
CASES = ([json.loads(line) for line in FIXTURE.read_text().splitlines()]
         if FIXTURE.exists() else [])


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_solver_reproduces_fixture(case):
    g = _graph(case)
    got = _record(g)
    assert got == {k: case[k] for k in got}
    idx = g.edge_indices
    assert repr(value_solver(g.instance)(idx)) == got["value"]
    assert [repr(float(c)) for c in cover_solver(g.instance)(idx)] == got["cover"]


def _reference(g):
    """The primal-dual method with a full rescan of the tree for every
    tight-edge search and for every adjustment: (edges, value, cover)."""
    inst, tight = g.instance, 1e-12
    adj = {}
    for j in g.edge_indices.tolist():
        e = inst.edges[j]
        adj.setdefault(e.u, []).append((e.v, e.w, j))
    yl = {u: max(w for _, w, _ in lst) for u, lst in adj.items()}
    yr, mate_l, mate_r = {}, {}, {}
    for root in sorted(adj):
        if root in mate_l or yl[root] <= tight:
            continue
        tl, tr, parent = {root}, {}, {}

        def flip(v, u, j):
            while True:
                prev = mate_l.get(u)
                mate_l[u], mate_r[v] = (v, j), (u, j)
                if u == root:
                    return
                v = prev[0]
                u, j = tr[v]

        while True:
            entered = next(((u, v, j) for u in sorted(tl) for v, w, j in adj[u]
                            if v not in tr and yl[u] + yr.get(v, 0.0) - w <= tight), None)
            if entered is not None:
                u, v, j = entered
                tr[v] = (u, j)
                if v not in mate_r:
                    flip(v, u, j)
                    break
                u2 = mate_r[v][0]
                tl.add(u2)
                parent[u2] = v
                continue
            slack = min((yl[u] + yr.get(v, 0.0) - w for u in tl for v, w, _ in adj[u]
                         if v not in tr), default=math.inf)
            floor = min(yl[u] for u in tl)
            delta = min(slack, floor)
            for u in tl:
                yl[u] -= delta
            for v in tr:
                yr[v] = yr.get(v, 0.0) + delta
            if floor <= slack:
                released = min(u for u in tl if yl[u] <= tight)
                if released != root:
                    del mate_l[released]
                    v = parent[released]
                    flip(v, *tr[v])
                break
    value = 0.0
    for u in sorted(mate_l):
        value += inst.edges[mate_l[u][1]].w
    y = np.zeros(inst.total_vertices)
    for u, val in yl.items():
        y[u] = max(0.0, val)
    for v, val in yr.items():
        y[inst.n + v] = max(0.0, val)
    return tuple(sorted(j for _, j in mate_l.values())), value, y


@pytest.mark.parametrize("seed", range(24))
def test_larger_graphs_match_full_rescan_reference(seed):
    # deeper trees and more adjustments than the fixture's n <= 10
    rng = np.random.default_rng(9000 + seed)
    family = list(WEIGHT_FAMILIES)[seed % 4]
    n = int(rng.integers(15, 41))
    pairs = [(u, v) for u in range(n) for v in range(n) if rng.random() < 4.0 / n]
    weights = WEIGHT_FAMILIES[family](rng, len(pairs))
    inst = Instance("bipartite", n, tuple(PotentialEdge(u, v, 0.5, float(w))
                                          for (u, v), w in zip(pairs, weights)))
    g = SampledGraph(inst, rng.random(len(pairs)) < 0.8)
    edges, value, y = _reference(g)
    matching, got, cover = max_weight_matching_bipartite(g)
    assert matching.edges == edges
    assert repr(got) == repr(value)
    assert cover.y.tobytes() == y.tobytes()
    idx = g.edge_indices
    assert repr(value_solver(inst)(idx)) == repr(value)
    assert cover_solver(inst)(idx).tobytes() == y.tobytes()


def test_fixture_covers_every_family():
    assert len(CASES) == CASES_PER_FAMILY * len(WEIGHT_FAMILIES)
    assert {c["id"].rsplit("-", 1)[0] for c in CASES} == set(WEIGHT_FAMILIES)


if __name__ == "__main__":
    rng = np.random.default_rng(20240607)
    lines = []
    for family, draw in WEIGHT_FAMILIES.items():
        for k in range(CASES_PER_FAMILY):
            n = int(rng.integers(2, 11))
            density = float(rng.uniform(0.2, 0.9))
            pairs = [(u, v) for u in range(n) for v in range(n) if rng.random() < density]
            order = rng.permutation(len(pairs))
            weights = draw(rng, len(pairs))
            edges = [[pairs[i][0], pairs[i][1], float(w)] for i, w in zip(order, weights)]
            realized = np.nonzero(rng.random(len(edges)) < 0.75)[0].tolist()
            case = {"id": f"{family}-{k}", "n": n, "edges": edges, "realized": realized}
            case.update(_record(_graph(case)))
            lines.append(json.dumps(case))
    FIXTURE.write_text("\n".join(lines) + "\n")
