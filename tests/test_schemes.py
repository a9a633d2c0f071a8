from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from matchgap import (DEFAULT_TRANSFER, AuditReport, AuditViolation, FractionalVertexCover,
                      Instance, MassVector, PotentialEdge, SampledGraph, audit_masses,
                      max_weight_matching_bipartite, sample, unweighted_scheme, weighted_scheme)
from matchgap.gallery import gen_random_point

from conftest import check_record


def realized_all(inst):
    return SampledGraph(inst, np.ones(inst.num_edges, dtype=bool))


def cover_of(g):
    _, nu, cover = max_weight_matching_bipartite(g)
    return nu, cover


class TestWeightedScheme:
    def test_single_edge_gets_everything(self):
        inst = Instance("bipartite", 1, (PotentialEdge(0, 0, 1.0, 1.0),))
        g = realized_all(inst)
        cover = FractionalVertexCover(np.array([1.0, 0.0]))
        t = weighted_scheme(g, cover)
        assert t.edge_mass.tolist() == [1.0]
        assert t.vertex_mass.tolist() == [0.0, 0.0]

    def test_center_splits_evenly_on_path(self):
        # u0-v0, u1-v0 with all mass on v0: each edge gets 1/2
        inst = Instance("bipartite", 2, (PotentialEdge(0, 0, 1.0, 1.0),
                                         PotentialEdge(1, 0, 1.0, 1.0)))
        cover = FractionalVertexCover(np.array([0.0, 0.0, 1.0, 0.0]))
        t = weighted_scheme(realized_all(inst), cover)
        assert t.edge_mass.tolist() == [0.5, 0.5]

    def test_three_star_thirds(self):
        inst = Instance("bipartite", 3, tuple(PotentialEdge(0, v, 1.0, 1.0)
                                              for v in range(3)))
        cover = FractionalVertexCover(np.array([1.0, 0, 0, 0, 0, 0]))
        t = weighted_scheme(realized_all(inst), cover)
        assert t.edge_mass == pytest.approx([1 / 3] * 3)

    def test_isolated_vertex_keeps_mass(self):
        inst = Instance("bipartite", 2, (PotentialEdge(0, 0, 0.5, 1.0),))
        g = SampledGraph(inst, np.array([False]))
        cover = FractionalVertexCover(np.array([0.25, 0.0, 0.0, 0.0]))
        t = weighted_scheme(g, cover)
        assert t.vertex_mass[0] == 0.25
        assert t.total == pytest.approx(0.25)


class TestUnweightedScheme:
    def test_equal_probabilities_cancel(self):
        # two adjacent edges with equal x: quadratic transfers cancel exactly
        inst = Instance("bipartite", 2, (PotentialEdge(0, 0, 0.5, 1.0),
                                         PotentialEdge(1, 0, 0.5, 1.0)))
        g = realized_all(inst)
        _, cover = cover_of(g)
        base = weighted_scheme(g, cover)
        t = unweighted_scheme(g, cover)
        assert t.edge_mass == pytest.approx(base.edge_mass.tolist())

    def test_isolated_edge_unchanged(self):
        inst = Instance("bipartite", 2, (PotentialEdge(0, 0, 0.5, 1.0),
                                         PotentialEdge(1, 1, 0.9, 1.0)))
        g = realized_all(inst)
        nu, cover = cover_of(g)
        assert unweighted_scheme(g, cover).edge_mass == pytest.approx(
            weighted_scheme(g, cover).edge_mass.tolist())

    def test_pairwise_transfer_formula(self):
        # edge with x = eps adjacent to one edge with x = 1 - eps:
        # net income c * (eps (1-eps)^2 - eps^2 (1-eps))
        eps, c = 0.2, DEFAULT_TRANSFER
        inst = Instance("bipartite", 2, (PotentialEdge(0, 0, eps, 1.0),
                                         PotentialEdge(0, 1, 1 - eps, 1.0)))
        g = SampledGraph(inst, np.array([False, False]))
        cover = FractionalVertexCover(np.zeros(4))
        t = unweighted_scheme(g, cover)
        expect = c * (eps * (1 - eps) ** 2 - eps ** 2 * (1 - eps))
        assert t.edge_mass[0] == pytest.approx(expect, abs=1e-15)
        assert t.edge_mass[1] == pytest.approx(-expect, abs=1e-15)

    def test_requires_unit_weights(self):
        inst = Instance("bipartite", 1, (PotentialEdge(0, 0, 0.5, 2.0),))
        g = realized_all(inst)
        with pytest.raises(ValueError, match="unit weights"):
            unweighted_scheme(g, FractionalVertexCover(np.zeros(2)))


class TestAudit:
    def test_weighted_scheme_passes(self):
        inst = gen_random_point(3, 0.8, 11, "bipartite")
        g = sample(inst, 0, 0)
        nu, cover = cover_of(g)
        report = audit_masses(weighted_scheme(g, cover), cover, nu)
        assert report.ok

    def test_negative_vertex_flagged(self):
        from matchgap import MassVector
        t = MassVector(np.array([-0.1, 0.0]), np.array([1.1]))
        cover = FractionalVertexCover(np.array([1.0, 0.0]))
        report = audit_masses(t, cover, 1.0)
        assert not report.ok
        assert report.violations[0].check == "vertex_mass_nonnegative"
        assert "vertex 0" in report.violations[0].location

    def test_conservation_mismatch_flagged(self):
        from matchgap import MassVector
        t = MassVector(np.array([0.0, 0.0]), np.array([0.7]))
        cover = FractionalVertexCover(np.array([1.0, 0.0]))
        report = audit_masses(t, cover, 1.0)
        checks = {v.check for v in report.violations}
        assert "mass_conservation" in checks

    @pytest.mark.parametrize("seed", range(50))
    def test_property_sweep_small_instances(self, seed):
        inst = gen_random_point(3, 0.7, 40_000 + seed, "bipartite", weighted=False)
        if inst.num_edges == 0:
            return
        g = sample(inst, 5, seed)
        nu, cover = cover_of(g)
        for scheme in (weighted_scheme, unweighted_scheme):
            report = audit_masses(scheme(g, cover), cover, nu)
            assert report.ok, report.violations

    def test_conservation_is_tight(self):
        inst = gen_random_point(4, 0.8, 99, "bipartite", weighted=False)
        g = sample(inst, 1, 2)
        nu, cover = cover_of(g)
        t = unweighted_scheme(g, cover)
        assert t.total == pytest.approx(cover.norm, abs=1e-9)
        assert t.total == pytest.approx(nu, abs=1e-9)


@pytest.mark.parametrize("make, text, by_value, frozen, cached", [
    pytest.param(lambda: MassVector(np.array([0.5, 0.0]), np.array([0.25])),
                 "MassVector(vertex_mass=array([0.5, 0. ]), edge_mass=array([0.25]))", False,
                 FrozenInstanceError, ("total",), id="MassVector"),
    pytest.param(lambda: AuditViolation("edge_mass_bound", "sum of edge masses", 0.5),
                 "AuditViolation(check='edge_mass_bound', location='sum of edge masses', "
                 "value=0.5)", True, AttributeError, (), id="AuditViolation"),
    pytest.param(lambda: AuditReport(True, 1.0, 1.0, 1.0, 0.5),
                 "AuditReport(ok=True, total_mass=1.0, cover_norm=1.0, matching_value=1.0, "
                 "edge_mass_sum=0.5, violations=())", True, AttributeError, (), id="AuditReport"),
])
def test_record(make, text, by_value, frozen, cached):
    check_record(make, text, by_value, frozen, cached=cached)
