"""Tests for shortest-path route computation (repro.routing.shortest_path)."""

import pytest

from repro.api.registry import topology_families
from repro.errors import RouteError
from repro.model.channels import Link
from repro.model.topology import Topology
from repro.model.validation import validate_design
from repro.routing.shortest_path import (
    average_hop_count,
    compute_routes,
    shortest_route,
)


@pytest.fixture
def square() -> Topology:
    """A bidirectional square A-B-C-D-A."""
    topo = Topology("square")
    topo.add_switches(["A", "B", "C", "D"])
    topo.add_bidirectional_link("A", "B")
    topo.add_bidirectional_link("B", "C")
    topo.add_bidirectional_link("C", "D")
    topo.add_bidirectional_link("D", "A")
    return topo


class TestShortestRoute:
    def test_direct_neighbour(self, square):
        route = shortest_route(square, "A", "B")
        assert route.hop_count == 1
        assert route.links == (Link("A", "B"),)

    def test_two_hop_path(self, square):
        route = shortest_route(square, "A", "C")
        assert route.hop_count == 2
        assert route.source_switch == "A"
        assert route.destination_switch == "C"

    def test_deterministic_tie_break(self, square):
        # A->C has two 2-hop paths (via B or via D); the lexicographically
        # smaller switch sequence must win every time.
        first = shortest_route(square, "A", "C")
        second = shortest_route(square, "A", "C")
        assert first == second
        assert first.switches[1] == "B"

    def test_weights_can_reroute(self, square):
        weights = {Link("A", "B"): 10.0, Link("B", "C"): 10.0}
        route = shortest_route(square, "A", "C", link_weights=weights)
        assert route.switches[1] == "D"

    def test_same_switch_rejected(self, square):
        with pytest.raises(RouteError):
            shortest_route(square, "A", "A")

    def test_unreachable_destination_rejected(self):
        # unidirectional sw0->sw1->sw2->sw3->sw0
        topo = topology_families.get("ring").build({"n_switches": 4}).topology
        topo.add_switch("island")
        with pytest.raises(RouteError):
            shortest_route(topo, "sw0", "island")

    def test_unidirectional_ring_goes_the_long_way(self):
        topo = topology_families.get("ring").build({"n_switches": 5}).topology
        route = shortest_route(topo, "sw3", "sw1")
        assert route.hop_count == 3
        assert route.switches == ["sw3", "sw4", "sw0", "sw1"]


class TestComputeRoutes:
    def test_all_flows_get_routes(self, d26_design_14sw):
        design = d26_design_14sw
        for flow in design.traffic.flows:
            src, dst = design.flow_endpoints_switches(flow)
            if src != dst:
                assert design.routes.has_route(flow.name)

    def test_local_flows_get_no_route(self, small_mesh_design):
        design = small_mesh_design.copy()
        # Move a destination core onto the same switch as its source.
        flow = design.traffic.flows[0]
        design.core_map[flow.dst] = design.core_map[flow.src]
        compute_routes(design)
        assert not design.routes.has_route(flow.name)

    def test_hops_mode_gives_minimum_hop_routes(self, small_mesh_design):
        design = small_mesh_design.copy()
        compute_routes(design, weight_mode="hops")
        validate_design(design)
        for flow in design.traffic.flows:
            src, dst = design.flow_endpoints_switches(flow)
            if src == dst:
                continue
            sx, sy = (int(p) for p in src.split("_")[1:])
            dx, dy = (int(p) for p in dst.split("_")[1:])
            manhattan = abs(sx - dx) + abs(sy - dy)
            assert design.routes.route(flow.name).hop_count == manhattan

    def test_unknown_weight_mode_rejected(self, small_mesh_design):
        with pytest.raises(RouteError):
            compute_routes(small_mesh_design.copy(), weight_mode="banana")

    def test_overwrite_false_keeps_existing_routes(self, small_mesh_design):
        design = small_mesh_design.copy()
        existing = {name: design.routes.route(name) for name in design.routes}
        compute_routes(design, weight_mode="hops", overwrite=False)
        for name, route in existing.items():
            assert design.routes.route(name) == route

    def test_congestion_mode_is_deterministic(self, d26_traffic):
        from repro.synthesis.builder import SynthesisConfig, synthesize_design

        first = synthesize_design(d26_traffic, SynthesisConfig(n_switches=8))
        second = synthesize_design(d26_traffic, SynthesisConfig(n_switches=8))
        assert first.routes == second.routes


class TestAverageHopCount:
    def test_zero_for_empty_routes(self, simple_line_design):
        design = simple_line_design.copy()
        design.routes.remove_route("f0")
        design.routes.remove_route("f1")
        assert average_hop_count(design) == 0.0

    def test_weighted_average(self, simple_line_design):
        # f0 (bw 100) and f1 (bw 50) both have 2 hops -> average 2.
        assert average_hop_count(simple_line_design) == pytest.approx(2.0)

    def test_mesh_average_positive(self, small_mesh_design):
        assert average_hop_count(small_mesh_design) > 0
