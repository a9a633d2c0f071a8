"""Problem instances: potential edges with probabilities and weights.

An :class:`Instance` is a set of vertices plus a list of potential edges,
each carrying an appearance probability ``x`` and a weight ``w``.  Bipartite
instances have ``n`` vertices per side; left vertex ``u`` gets global id
``u`` and right vertex ``v`` gets global id ``n + v``.  General instances
have ``n`` vertices with global ids ``0..n-1``.

The module also hosts feasibility checks against the matching polytope
(degree constraints always, odd-set constraints by exhaustive enumeration
at small sizes) and the fractional objective ``sum_e w_e * x_e``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

DEFAULT_TOLERANCE = 1e-9

#: Largest general-graph vertex count for which odd sets are enumerated.
ODD_SET_CUTOFF = 14


class OddSetCheckInfeasible(RuntimeError):
    """Odd-set enumeration was requested beyond the exhaustive cutoff."""


@dataclass(frozen=True)
class PotentialEdge:
    """One potential edge: endpoints, appearance probability, weight."""

    u: int
    v: int
    x: float
    w: float = 1.0


@dataclass(frozen=True)
class Instance:
    """Immutable random-graph model: every edge appears independently.

    ``kind`` is ``"bipartite"`` or ``"general"``.  For bipartite instances
    ``n`` counts vertices per side and edges go from left (``u``) to right
    (``v``); for general instances ``n`` is the total vertex count and an
    edge is an unordered pair.
    """

    kind: str
    n: int
    edges: tuple[PotentialEdge, ...]

    def __post_init__(self):
        if self.kind not in ("bipartite", "general"):
            raise ValueError(f"unknown instance kind {self.kind!r}")
        if self.n < 0:
            raise ValueError("vertex count must be nonnegative")
        object.__setattr__(self, "edges", tuple(self.edges))
        seen = set()
        for e in self.edges:
            if not (0.0 <= e.x <= 1.0):
                raise ValueError(f"edge ({e.u},{e.v}) has probability {e.x} outside [0,1]")
            if not (e.w >= 0.0 and np.isfinite(e.w)):
                raise ValueError(f"edge ({e.u},{e.v}) has invalid weight {e.w}")
            if not (0 <= e.u < self.n and 0 <= e.v < self.n):
                raise ValueError(f"edge ({e.u},{e.v}) endpoint out of range for n={self.n}")
            if self.kind == "bipartite":
                key = (e.u, e.v)
            else:
                if e.u == e.v:
                    raise ValueError(f"self-loop at vertex {e.u}")
                key = (min(e.u, e.v), max(e.u, e.v))
            if key in seen:
                raise ValueError(f"duplicate edge {key}")
            seen.add(key)

    # -- derived views ----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def total_vertices(self) -> int:
        return 2 * self.n if self.kind == "bipartite" else self.n

    @cached_property
    def x(self) -> np.ndarray:
        return np.array([e.x for e in self.edges], dtype=np.float64)

    @cached_property
    def w(self) -> np.ndarray:
        return np.array([e.w for e in self.edges], dtype=np.float64)

    @cached_property
    def endpoints(self) -> np.ndarray:
        """(m, 2) array of global vertex ids per edge."""
        out = np.empty((len(self.edges), 2), dtype=np.int64)
        for j, e in enumerate(self.edges):
            out[j, 0] = e.u
            out[j, 1] = e.v + self.n if self.kind == "bipartite" else e.v
        return out

    @cached_property
    def is_unweighted(self) -> bool:
        return bool(np.all(self.w == 1.0))

    def vertex_label(self, gid: int) -> str:
        if self.kind == "bipartite":
            return f"L{gid}" if gid < self.n else f"R{gid - self.n}"
        return str(gid)

    def scale_probabilities(self, t: float) -> "Instance":
        """New instance with every probability multiplied by t in [0, 1]."""
        if not (0.0 <= t <= 1.0):
            raise ValueError("scale factor must lie in [0, 1]")
        return Instance(self.kind, self.n,
                        tuple(PotentialEdge(e.u, e.v, t * e.x, e.w) for e in self.edges))


@dataclass(frozen=True)
class PolytopeReport:
    """Outcome of a matching-polytope membership check.

    ``violating_vertex`` / ``violating_odd_set`` hold the lexicographically
    smallest violation, or None when the corresponding check passed.
    ``odd_set_checked`` is False whenever odd sets were not enumerated
    (bipartite input, or enumeration not requested).
    """

    degree_ok: bool
    violating_vertex: Optional[int] = None
    violating_vertex_load: Optional[float] = None
    odd_set_checked: bool = False
    violating_odd_set: Optional[tuple[int, ...]] = None
    violating_odd_set_load: Optional[float] = None

    @property
    def ok(self) -> bool:
        return self.degree_ok and self.violating_odd_set is None


def fractional_value(inst: Instance) -> float:
    """Fractional objective sum_e w_e * x_e (sum_e x_e when unweighted)."""
    return float(np.dot(inst.w, inst.x))


def vertex_loads(inst: Instance) -> np.ndarray:
    """Per-vertex load sum_{e at v} x_e, indexed by global vertex id."""
    return _vertex_sums(inst, inst.x)


def _vertex_sums(inst: Instance, values: np.ndarray) -> np.ndarray:
    """Per global vertex id, the sum of `values` (one per edge) over its
    incident edges, added at the first endpoints and then at the second."""
    sums = np.zeros(inst.total_vertices, dtype=np.float64)
    np.add.at(sums, inst.endpoints[:, 0], values)
    np.add.at(sums, inst.endpoints[:, 1], values)
    return sums


def validate_polytope(inst: Instance, check_odd_sets: bool = False,
                      tolerance: float = DEFAULT_TOLERANCE,
                      odd_set_cutoff: int = ODD_SET_CUTOFF) -> PolytopeReport:
    """Check membership of x in the matching polytope.

    Degree constraints (load <= 1 at every vertex) are always checked.
    Odd-set constraints exist only for general instances and are checked
    by exhaustive enumeration over all odd subsets of size >= 3, which is
    refused above ``odd_set_cutoff`` vertices rather than silently skipped.
    """
    loads = vertex_loads(inst)
    bad = np.nonzero(loads > 1.0 + tolerance)[0]
    degree_ok = bad.size == 0
    violating_vertex = int(bad[0]) if bad.size else None
    violating_load = float(loads[bad[0]]) if bad.size else None

    odd_checked = False
    odd_set = None
    odd_load = None
    if check_odd_sets:
        if inst.kind != "general":
            raise ValueError("odd-set constraints only apply to general instances")
        if inst.n > odd_set_cutoff:
            raise OddSetCheckInfeasible(
                f"odd-set check infeasible: n={inst.n} exceeds cutoff {odd_set_cutoff}")
        odd_checked = True
        odd_set, odd_load = _first_violating_odd_set(inst, tolerance)

    return PolytopeReport(degree_ok=degree_ok,
                          violating_vertex=violating_vertex,
                          violating_vertex_load=violating_load,
                          odd_set_checked=odd_checked,
                          violating_odd_set=odd_set,
                          violating_odd_set_load=odd_load)


def _first_violating_odd_set(inst, tolerance):
    # Exhaustive scan; lexicographically smallest violating subset wins.
    violations = []
    x = inst.x
    for size in range(3, inst.n + 1, 2):
        bound = (size - 1) // 2
        for subset in itertools.combinations(range(inst.n), size):
            members = set(subset)
            load = sum(x[j] for j, e in enumerate(inst.edges)
                       if e.u in members and e.v in members)
            if load > bound + tolerance:
                violations.append((subset, float(load)))
    if not violations:
        return None, None
    best = min(violations, key=lambda item: item[0])
    return tuple(best[0]), best[1]


# -- JSON interchange ------------------------------------------------------
# Schema: {"kind": "bipartite"|"general", "n": int,
#          "edges": [{"u": int, "v": int, "x": float, "w": float}]}
# For bipartite instances "u" indexes the left side and "v" the right side.
# A missing "w" defaults to 1.0.


def instance_to_dict(inst: Instance) -> dict:
    return {
        "kind": inst.kind,
        "n": inst.n,
        "edges": [{"u": e.u, "v": e.v, "x": e.x, "w": e.w} for e in inst.edges],
    }


def instance_from_dict(data: dict) -> Instance:
    edges = tuple(PotentialEdge(int(e["u"]), int(e["v"]), float(e["x"]),
                                float(e.get("w", 1.0)))
                  for e in data["edges"])
    return Instance(str(data["kind"]), int(data["n"]), edges)


def dump_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), sort_keys=True)


def load_instance(text: str) -> Instance:
    return instance_from_dict(json.loads(text))
