"""Local mass-distribution schemes over a realized graph and its dual.

Starting from an optimal fractional vertex cover, the weighted scheme
lets every non-isolated vertex split its dual mass evenly over its
realized edges.  The unweighted scheme additionally moves deterministic
quadratic transfers between adjacent *potential* edges: edge ``a`` pays
``c * x_a^2 * x_b`` to every adjacent edge ``b``, which taxes
high-probability edges in favor of their low-probability neighbors.
Both schemes conserve total mass and never drive a vertex negative.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

import numpy as np

from .matching import FractionalVertexCover
from .model import FrozenRecord, Instance, _vertex_sums
from .sampling import SampledGraph, block_degrees, split_flat

#: The constant c of the quadratic edge-to-edge payments.
DEFAULT_TRANSFER = 1.0 / 6.0


class MassVector(FrozenRecord):
    """Post-distribution mass on every vertex and every potential edge."""

    _fields = ("vertex_mass", "edge_mass")

    def __init__(self, vertex_mass: np.ndarray, edge_mass: np.ndarray):
        vars(self).update(vertex_mass=vertex_mass, edge_mass=edge_mass)

    @cached_property
    def total(self) -> float:
        return float(self.vertex_mass.sum() + self.edge_mass.sum())


class AuditViolation(NamedTuple):
    check: str
    location: str
    value: float


class AuditReport(NamedTuple):
    ok: bool
    total_mass: float
    cover_norm: float
    matching_value: float
    edge_mass_sum: float
    violations: tuple[AuditViolation, ...] = ()


def weighted_scheme(g: SampledGraph, cover: FractionalVertexCover) -> MassVector:
    """Each vertex spreads its dual mass evenly over its realized edges.

    Isolated vertices keep their mass (optimal covers put zero there, but
    the convention avoids dividing by a zero degree).
    """
    return _one_row(g, cover, "weighted")


def unweighted_scheme(g: SampledGraph, cover: FractionalVertexCover) -> MassVector:
    """Weighted scheme plus the deterministic quadratic transfers.

    Requires a unit-weight instance.  The transfers run over all pairs of
    adjacent potential edges whether realized or not, so the correction to
    edge e = (u, v) is
        c * sum_{f ~ e} (x_f^2 * x_e - x_e^2 * x_f)
    summed over potential edges f sharing u or v, with c = DEFAULT_TRANSFER.
    """
    return _one_row(g, cover, "unweighted")


def _one_row(g, cover, scheme):
    moved = scheme_transfers(g.instance, scheme)
    edge_mass = block_edge_masses(g.instance, g.edge_indices, cover.y[None], moved)[0]
    return MassVector(np.where(g.degrees == 0, cover.y, 0.0), edge_mass)


def scheme_transfers(inst: Instance, scheme: str):
    """What the scheme adds to every realization's edge masses: c *
    `_transfers` for the unweighted scheme, None for the weighted one."""
    if scheme not in ("weighted", "unweighted"):
        raise ValueError(f"unknown scheme {scheme!r}")
    return DEFAULT_TRANSFER * _transfers(inst) if scheme == "unweighted" else None


def block_edge_masses(inst: Instance, flat: np.ndarray, covers: np.ndarray,
                      moved) -> np.ndarray:
    """Edge masses of a scheme, one row per row of a realization block
    given by its flat positions (see `sampling.realization_blocks`);
    ``covers[k]`` is the optimal cover of row k and `moved` the scheme's
    `scheme_transfers`.

    ``weighted_scheme`` and ``unweighted_scheme`` are its one-row case,
    for that realization and cover.
    """
    masses = _spread(inst, flat, covers, block_degrees(inst, flat, len(covers)))
    return masses if moved is None else masses + moved


def _spread(inst, flat, y, deg):
    # y_u / deg_u + y_v / deg_v on realized edges (where both degrees are
    # at least 1), zero elsewhere
    m = inst.num_edges
    row, col = split_flat(flat, m)
    a, b = (ends[col] for ends in inst.endpoints.T)
    out = np.zeros(len(y) * m)
    out[flat] = y[row, a] / deg[row, a] + y[row, b] / deg[row, b]
    return out.reshape(len(y), m)


def _transfers(inst: Instance) -> np.ndarray:
    """Net quadratic transfer into every edge, before the factor c."""
    if not inst.is_unweighted:
        raise ValueError("quadratic-transfer scheme requires unit weights")
    x = inst.x
    s1 = _vertex_sums(inst, x)
    s2 = _vertex_sums(inst, x ** 2)
    # income minus outgo against the neighborhood sums, both endpoints
    a, b = inst.endpoints.T
    return (x * (s2[a] - x ** 2) - x ** 2 * (s1[a] - x)
            + x * (s2[b] - x ** 2) - x ** 2 * (s1[b] - x))


def audit_masses(t: MassVector, cover: FractionalVertexCover, nu: float,
                 tolerance: float = 1e-9) -> AuditReport:
    """Check vertex nonnegativity, conservation, and the edge-sum bound.

    Violations are report content, not exceptions: (i) every vertex mass
    >= -tol, (ii) total mass equals both the cover norm and the matching
    value within tol, (iii) the edge masses alone sum to at most the
    matching value plus tol.
    """
    violations = [AuditViolation("vertex_mass_nonnegative", f"vertex {int(v)}",
                                 float(t.vertex_mass[v]))
                  for v in np.flatnonzero(t.vertex_mass < -tolerance)]
    total = t.total
    norm = cover.norm
    if abs(total - norm) > tolerance:
        violations.append(AuditViolation("mass_conservation", "total vs cover norm",
                                         total - norm))
    if abs(total - nu) > tolerance:
        violations.append(AuditViolation("mass_conservation", "total vs matching value",
                                         total - nu))
    edge_sum = float(t.edge_mass.sum())
    if edge_sum > nu + tolerance:
        violations.append(AuditViolation("edge_mass_bound", "sum of edge masses",
                                         edge_sum - nu))
    return AuditReport(ok=not violations, total_mass=total, cover_norm=norm,
                       matching_value=nu, edge_mass_sum=edge_sum,
                       violations=tuple(violations))
