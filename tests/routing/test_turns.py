"""Tests for turn-prohibition routing (repro.routing.turns)."""

import pytest

from repro.benchmarks.synthetic import default_mesh_traffic
from repro.core.cdg import build_cdg
from repro.errors import RouteError
from repro.model.validation import validate_design
from repro.routing.turns import (
    bfs_levels,
    compute_updown_routes,
    compute_xy_routes,
    mesh_coordinates,
    updown_orientation,
    updown_route,
    xy_route,
)
from repro.synthesis.families import family_design


class TestBfsLevels:
    def test_levels_from_root(self, small_mesh_design):
        levels = bfs_levels(small_mesh_design.topology, "sw_0_0")
        assert levels["sw_0_0"] == 0
        assert levels["sw_1_0"] == 1
        assert levels["sw_2_2"] == 4

    def test_unknown_root_rejected(self, small_mesh_design):
        with pytest.raises(RouteError):
            bfs_levels(small_mesh_design.topology, "nope")


class TestUpDown:
    def test_orientation_covers_all_links(self, small_mesh_design):
        orientation = updown_orientation(small_mesh_design.topology)
        assert set(orientation) == set(small_mesh_design.topology.links)
        assert set(orientation.values()) <= {"up", "down"}

    def test_opposite_links_have_opposite_orientation(self, small_mesh_design):
        orientation = updown_orientation(small_mesh_design.topology)
        for link, direction in orientation.items():
            assert orientation[link.reversed()] != direction

    def test_updown_routes_are_acyclic(self, d26_traffic):
        """up*/down* is a deadlock-avoidance routing: its CDG never has cycles."""
        from repro.synthesis.builder import SynthesisConfig, synthesize_design

        design = synthesize_design(
            d26_traffic, SynthesisConfig(n_switches=10, routing="updown")
        )
        assert build_cdg(design).is_acyclic()
        validate_design(design)

    def test_updown_route_endpoints(self, small_mesh_design):
        route = updown_route(small_mesh_design.topology, "sw_0_0", "sw_2_2")
        assert route.source_switch == "sw_0_0"
        assert route.destination_switch == "sw_2_2"

    def test_updown_same_switch_rejected(self, small_mesh_design):
        with pytest.raises(RouteError):
            updown_route(small_mesh_design.topology, "sw_0_0", "sw_0_0")

    def test_updown_unknown_destination_is_route_error(self, small_mesh_design):
        # An unreachable (here: nonexistent) destination is a routing
        # failure, not a topology error — the seed BFS simply exhausted.
        with pytest.raises(RouteError, match="no up\\*/down\\* route"):
            updown_route(small_mesh_design.topology, "sw_0_0", "sw_9_9")

    def test_compute_updown_routes_on_mesh(self, small_mesh_design):
        design = small_mesh_design.copy()
        compute_updown_routes(design)
        validate_design(design)
        assert build_cdg(design).is_acyclic()


class TestUpdownState:
    def test_orientation_matches_reference(self, d26_traffic):
        """Routes follow the reference orientation and never turn down -> up."""
        from repro.synthesis.builder import SynthesisConfig, synthesize_design

        design = synthesize_design(d26_traffic, SynthesisConfig(n_switches=8))
        reference = updown_orientation(design.topology)
        routes = compute_updown_routes(design)
        assert routes.flow_names
        for name in routes.flow_names:
            route = routes.route(name)
            flow = design.traffic.flow(name)
            assert route == updown_route(
                design.topology, design.switch_of(flow.src), design.switch_of(flow.dst)
            )
            directions = [reference[link] for link in route.links]
            assert directions == sorted(directions, key=lambda d: d == "down")


class TestXY:
    def test_mesh_coordinates_parse(self):
        assert mesh_coordinates("sw_2_1") == (2, 1)

    def test_bad_switch_name_rejected(self):
        with pytest.raises(RouteError):
            mesh_coordinates("router7")

    def test_xy_route_goes_x_first(self, small_mesh_design):
        route = xy_route(small_mesh_design.topology, "sw_0_0", "sw_2_1")
        assert route.switches == ["sw_0_0", "sw_1_0", "sw_2_0", "sw_2_1"]

    def test_xy_route_same_switch_rejected(self, small_mesh_design):
        with pytest.raises(RouteError):
            xy_route(small_mesh_design.topology, "sw_0_0", "sw_0_0")

    def test_xy_routes_always_acyclic(self):
        design = family_design(
            "mesh", default_mesh_traffic(4, 4), {"rows": 4, "cols": 4}, name="mesh4x4"
        )
        assert build_cdg(design).is_acyclic()

    def test_xy_missing_link_detected(self, small_mesh_design):
        topo = small_mesh_design.topology.copy()
        topo.remove_link(topo.find_link("sw_0_0", "sw_1_0"))
        with pytest.raises(RouteError):
            xy_route(topo, "sw_0_0", "sw_2_0")

    def test_compute_xy_routes_skips_local_flows(self, small_mesh_design):
        design = small_mesh_design.copy()
        flow = design.traffic.flows[0]
        design.core_map[flow.dst] = design.core_map[flow.src]
        compute_xy_routes(design)
        assert not design.routes.has_route(flow.name)
