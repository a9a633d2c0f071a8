"""Problem instances: potential edges with probabilities and weights.

An :class:`Instance` is a set of vertices plus potential edges, each
carrying an appearance probability ``x`` and a weight ``w``.  Bipartite
instances have ``n`` vertices per side; left vertex ``u`` gets global id
``u`` and right vertex ``v`` gets global id ``n + v``.  General instances
have ``n`` vertices with global ids ``0..n-1``.

Instances are columnar: three read-only arrays, ``endpoints`` ((m, 2)
global ids), ``x`` and ``w``, about 32 bytes per potential edge, checked
once and vectorized by :meth:`Instance.from_arrays`.  The endpoints are
stored once, as a C-contiguous (2, m) array of which ``endpoints`` is the
transposed view: ``u, v = inst.endpoints.T`` gives contiguous columns,
whose per-edge gathers ``u[idx]`` read no stride.  Per-edge
:class:`PotentialEdge` records are accepted by the constructor and offered
as the derived view ``Instance.edges``, built only when read.

The module also hosts feasibility checks against the matching polytope
(degree constraints always, odd-set constraints by exhaustive enumeration
at small sizes) and the fractional objective ``sum_e w_e * x_e``.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from typing import Iterable, Optional

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


_RECORD = np.dtype([("u", np.int64), ("v", np.int64), ("x", np.float64), ("w", np.float64)])


class Instance:
    """Immutable random-graph model: every edge appears independently.

    ``kind`` is ``"bipartite"`` or ``"general"``.  For bipartite instances
    ``n`` counts vertices per side and edges go from left (``u``) to right
    (``v``); for general instances ``n`` is the total vertex count and an
    edge is an unordered pair.

    ``Instance(kind, n, edges)`` takes :class:`PotentialEdge` records,
    collects their columns in one pass and validates them through
    :meth:`from_arrays`.
    """

    def __init__(self, kind: str, n: int, edges: Iterable[PotentialEdge] = ()):
        edges = tuple(edges)
        try:
            cols = np.fromiter(((e.u, e.v, e.x, e.w) for e in edges), dtype=_RECORD,
                               count=len(edges))
        except OverflowError:
            raise ValueError("edge endpoint outside the 64-bit integer range") from None
        right = cols["v"] + n if kind == "bipartite" else cols["v"]
        self._set(kind, n, np.stack([cols["u"], right]).T, cols["x"], cols["w"])

    @classmethod
    def from_arrays(cls, kind: str, n: int, endpoints, x, w) -> "Instance":
        """The validating constructor: ``endpoints`` holds (m, 2) global
        vertex ids, ``x`` and ``w`` the m probabilities and weights.
        Contiguous int64 / float64 arrays ``x`` and ``w``, and endpoints
        that are the transpose ``cols.T`` of a contiguous (2, m) int64
        array, are adopted without a copy and made read-only; endpoints in
        any other layout, a C-contiguous (m, 2) array among them, are
        copied once into that store.

        Raises ValueError for the first invalid edge in edge order; each
        edge is checked for its probability, weight, endpoint range,
        self-loop (general only) and duplication of an earlier edge, in
        that order.
        """
        inst = cls.__new__(cls)
        inst._set(kind, n, endpoints, x, w)
        return inst

    def _set(self, kind, n, endpoints, x, w) -> None:
        if kind not in ("bipartite", "general"):
            raise ValueError(f"unknown instance kind {kind!r}")
        if n < 0:
            raise ValueError("vertex count must be nonnegative")
        cols = np.ascontiguousarray(np.asarray(endpoints, np.int64).T)
        x = np.ascontiguousarray(x, dtype=np.float64)
        w = np.ascontiguousarray(w, dtype=np.float64)
        if x.ndim != 1 or w.shape != x.shape or cols.shape != (2, len(x)):
            raise ValueError("need (m, 2) endpoints and m probabilities and weights")
        error = _first_invalid_edge(kind, n, cols, x, w)
        if error is not None:
            raise ValueError(error)
        cols.flags.writeable = False  # and so its transposed view
        for name, value in (("kind", kind), ("n", n), ("endpoints", cols.T), ("x", x), ("w", w)):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __eq__(self, other):
        if not isinstance(other, Instance):
            return NotImplemented
        return (self.kind == other.kind and self.n == other.n
                and np.array_equal(self.endpoints, other.endpoints)
                and np.array_equal(self.x, other.x) and np.array_equal(self.w, other.w))

    def __hash__(self):
        return hash((self.kind, self.n, self.num_edges))

    def __reduce__(self):  # copies and unpickled instances are validated and read-only too
        return Instance.from_arrays, (self.kind, self.n, self.endpoints, self.x, self.w)

    def __repr__(self):
        return f"Instance(kind={self.kind!r}, n={self.n!r}, num_edges={self.num_edges})"

    # -- derived views ----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return len(self.x)

    @property
    def total_vertices(self) -> int:
        return 2 * self.n if self.kind == "bipartite" else self.n

    def columns(self) -> tuple[list, list, list, list]:
        """u, v, x and w as lists of Python scalars, with v indexing the
        right side of a bipartite instance."""
        a, b = self.endpoints.T
        if self.kind == "bipartite":
            b = b - self.n
        return a.tolist(), b.tolist(), self.x.tolist(), self.w.tolist()

    @cached_property
    def edges(self) -> tuple[PotentialEdge, ...]:
        """The edges as records of Python scalars, built on first read."""
        return tuple(map(PotentialEdge, *self.columns()))

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
        return Instance.from_arrays(self.kind, self.n, self.endpoints, t * self.x, self.w)


def _first_invalid_edge(kind: str, n: int, cols: np.ndarray, x: np.ndarray,
                        w: np.ndarray) -> Optional[str]:
    """The error message for the first invalid edge of the (2, m) endpoint
    columns `cols`, or None.  Duplicates are found by one sort of a pair
    key: (u, v) for bipartite edges, (min, max) for general ones;
    out-of-range edges get keys of their own."""
    a, b = cols
    if kind == "bipartite":
        in_range = (0 <= a) & (a < n) & (n <= b) & (b < 2 * n)
        loop = np.zeros(len(x), dtype=bool)
        lo, hi = a, b
    else:
        in_range = (0 <= a) & (a < n) & (0 <= b) & (b < n)
        loop = a == b
        lo, hi = np.minimum(a, b), np.maximum(a, b)
    key = lo * n + hi
    outside = np.flatnonzero(~in_range)
    key[outside] = -1 - outside
    # every repeat of a key after its first, in edge order; numpy's unique(key,
    # return_index=True) raised the tracemalloc peak on 40,000 edges 2.66 -> 3.28 MB
    order = np.argsort(key, kind="stable")
    dup = np.zeros(len(x), dtype=bool)
    dup[order[1:]] = key[order[1:]] == key[order[:-1]]
    checks = (~((0.0 <= x) & (x <= 1.0)), ~((w >= 0.0) & np.isfinite(w)), ~in_range, loop, dup)
    bad = np.logical_or.reduce(checks)
    if not bad.any():
        return None
    j = int(np.argmax(bad))
    u, v = int(a[j]), int(b[j]) - (n if kind == "bipartite" else 0)
    messages = (f"edge ({u},{v}) has probability {float(x[j])} outside [0,1]",
                f"edge ({u},{v}) has invalid weight {float(w[j])}",
                f"edge ({u},{v}) endpoint out of range for n={n}",
                f"self-loop at vertex {u}",
                f"duplicate edge {(u, v) if kind == 'bipartite' else (min(u, v), max(u, v))}")
    return next(msg for msg, failed in zip(messages, checks) if failed[j])


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
    for ends in inst.endpoints.T:
        np.add.at(sums, ends, values)
    return sums


def validate_polytope(inst: Instance, check_odd_sets: bool = False,
                      tolerance: float = DEFAULT_TOLERANCE) -> PolytopeReport:
    """Check membership of x in the matching polytope.

    Degree constraints (load <= 1 at every vertex) are always checked.
    Odd-set constraints exist only for general instances and are checked
    by exhaustive enumeration over all odd subsets of size >= 3, which is
    refused above ``ODD_SET_CUTOFF`` vertices rather than silently skipped.
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
        if inst.n > ODD_SET_CUTOFF:
            raise OddSetCheckInfeasible(
                f"odd-set check infeasible: n={inst.n} exceeds cutoff {ODD_SET_CUTOFF}")
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
    ends = inst.endpoints.tolist()
    for size in range(3, inst.n + 1, 2):
        bound = (size - 1) // 2
        for subset in itertools.combinations(range(inst.n), size):
            members = set(subset)
            load = sum(x[j] for j, (a, b) in enumerate(ends)
                       if a in members and b in members)
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
        "edges": [{"u": u, "v": v, "x": x, "w": w} for u, v, x, w in zip(*inst.columns())],
    }


class InstanceFormatError(ValueError):
    """Instance JSON that does not follow the schema."""


def _number(obj: dict, key: str, where: str, integral: bool = False, default=None):
    """obj[key], a JSON number, as an int if `integral` (a float only when
    whole) or as a float; a missing key gives `default` if there is one."""
    value = obj.get(key, default)
    if value is None:
        raise InstanceFormatError(f'{where} has no "{key}"')
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or integral and isinstance(value, float) and not value.is_integer()):
        what = "an integer" if integral else "a number"
        raise InstanceFormatError(f'{where}: "{key}" must be {what}, got {value!r}')
    return int(value) if integral else float(value)


def instance_from_dict(data) -> Instance:
    """The instance of a JSON document in the schema above.  A document off
    the schema raises InstanceFormatError; the Instance checks the values."""
    edges = data.get("edges") if isinstance(data, dict) and "kind" in data else None
    if not isinstance(edges, list) or not all(isinstance(e, dict) for e in edges):
        raise InstanceFormatError('an instance is an object with "kind", "n" and "edges", '
                                  'a list of edge objects')
    kind = data["kind"]
    if kind not in ("bipartite", "general"):
        raise InstanceFormatError(f'instance: "kind" must be "bipartite" or "general", '
                                  f'got {kind!r}')
    edges = tuple(PotentialEdge(_number(e, "u", f"edge {j}", True),
                                _number(e, "v", f"edge {j}", True), _number(e, "x", f"edge {j}"),
                                _number(e, "w", f"edge {j}", default=1.0))
                  for j, e in enumerate(edges))
    return Instance(kind, _number(data, "n", "instance", True), edges)


def dump_instance(inst: Instance) -> str:
    return json.dumps(instance_to_dict(inst), sort_keys=True)
