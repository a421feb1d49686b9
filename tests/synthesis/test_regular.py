"""Tests for the regular topology families (ring, mesh, torus)."""

from collections import Counter

import pytest

from repro.api.registry import topology_families
from repro.core.cdg import build_cdg
from repro.errors import SynthesisError
from repro.model.validation import validate_design
from repro.synthesis.families import family_design

BIRING6 = {"n_switches": 6, "bidirectional": True}


def _topology(family: str, **params):
    return topology_families.get(family).build(params).topology


class TestRingTopology:
    def test_unidirectional_ring_link_count(self):
        topo = _topology("ring", n_switches=5)
        assert (topo.switch_count, topo.link_count) == (5, 5)

    def test_bidirectional_ring_link_count(self):
        assert _topology("ring", n_switches=5, bidirectional=True).link_count == 10

    def test_too_small_ring_rejected(self):
        with pytest.raises(SynthesisError):
            _topology("ring", n_switches=2)

    def test_ring_is_connected(self):
        assert _topology("ring", n_switches=6).is_connected()


class TestMeshAndTorus:
    def test_mesh_dimensions(self):
        topo = _topology("mesh", rows=3, cols=4)
        assert topo.switch_count == 12
        # internal bidirectional links: horizontal 3*(4-1) + vertical 4*(3-1)
        assert topo.link_count == 2 * (3 * 3 + 4 * 2)

    def test_mesh_bad_dimensions_rejected(self):
        with pytest.raises(SynthesisError):
            _topology("mesh", rows=0, cols=3)

    def test_torus_has_wraparound_links(self):
        mesh = _topology("mesh", rows=3, cols=3)
        torus = _topology("torus", rows=3, cols=3)
        assert torus.link_count == mesh.link_count + 2 * (3 + 3)

    def test_torus_too_small_rejected(self):
        with pytest.raises(SynthesisError):
            _topology("torus", rows=2, cols=4)


class TestRingDesign:
    def test_default_traffic_created(self, small_ring_design):
        assert small_ring_design.traffic.core_count == 6
        assert small_ring_design.traffic.flow_count == 6
        validate_design(small_ring_design)

    def test_unidirectional_ring_design_has_cyclic_cdg(self, small_ring_design):
        assert not build_cdg(small_ring_design).is_acyclic()

    def test_bidirectional_ring_design(self, small_ring_design):
        validate_design(family_design("ring", small_ring_design.traffic, BIRING6))

    def test_custom_traffic_attached_round_robin(self, d26_traffic):
        design = family_design("ring", d26_traffic, BIRING6)
        assert set(design.core_map) == set(d26_traffic.cores)
        validate_design(design)


class TestMeshDesign:
    def test_default_mesh_design_valid(self, small_mesh_design):
        validate_design(small_mesh_design)
        assert small_mesh_design.traffic.core_count == 9

    def test_xy_routing_acyclic(self, small_mesh_design):
        assert build_cdg(small_mesh_design).is_acyclic()

    def test_shortest_path_routing_variant(self, small_mesh_design):
        mesh = {"rows": 3, "cols": 3, "routing": "shortest"}
        traffic, core_map = small_mesh_design.traffic, small_mesh_design.core_map
        validate_design(family_design("mesh", traffic, mesh, core_map=core_map))

    def test_custom_traffic_on_mesh(self, d26_traffic):
        validate_design(family_design("mesh", d26_traffic, {"rows": 3, "cols": 3}))


class TestAttachRoundRobin:
    def test_all_cores_attached(self, d26_traffic):
        mesh = topology_families.get("mesh").build({"rows": 3, "cols": 3})
        core_map = mesh.attach_cores(d26_traffic)
        assert set(core_map) == set(d26_traffic.cores)
        assert set(core_map.values()) <= set(mesh.topology.switches)

    def test_distribution_is_balanced(self, d26_traffic):
        mesh = topology_families.get("mesh").build({"rows": 3, "cols": 3})
        counts = Counter(mesh.attach_cores(d26_traffic).values())
        assert len(counts) == 9
        assert max(counts.values()) - min(counts.values()) <= 1
