"""Tests for shortest-path route computation (repro.routing.shortest_path)."""

import pytest

from repro.api.registry import topology_families
from repro.errors import RouteError
from repro.model.channels import Link
from repro.model.design import NocDesign
from repro.model.topology import Topology
from repro.model.traffic import CommunicationGraph
from repro.model.validation import validate_design
from repro.routing.shortest_path import (
    ENGINE_INDEXED,
    ENGINE_LEGACY,
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


@pytest.fixture
def three_switch_design() -> NocDesign:
    """A-B-C in a line, one core per switch; flows a->b, b->a and a->c."""
    topo = Topology("line3")
    topo.add_switches(["A", "B", "C"])
    topo.add_bidirectional_link("A", "B")
    topo.add_bidirectional_link("B", "C")
    traffic = CommunicationGraph("line3")
    for core in ("a", "b", "c"):
        traffic.add_core(core)
    traffic.add_flow("f0", "a", "b", bandwidth=50.0)
    traffic.add_flow("f1", "b", "a", bandwidth=50.0)
    traffic.add_flow("f2", "a", "c", bandwidth=50.0)
    return NocDesign(
        name="line3",
        topology=topo,
        traffic=traffic,
        core_map={"a": "A", "b": "B", "c": "C"},
    )


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

    def test_non_positive_weight_rejected(self, three_switch_design):
        # A zero-weight A<->B cycle: the path-tuple search never leaves it.
        weights = {Link("A", "B"): 0.0, Link("B", "A"): 0.0}
        with pytest.raises(RouteError, match="link weights must be positive"):
            shortest_route(three_switch_design.topology, "A", "C", link_weights=weights)

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
            src, dst = design.switch_of(flow.src), design.switch_of(flow.dst)
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
        compute_routes(design, congestion_factor=0.0)
        validate_design(design)
        for flow in design.traffic.flows:
            src, dst = design.switch_of(flow.src), design.switch_of(flow.dst)
            if src == dst:
                continue
            sx, sy = (int(p) for p in src.split("_")[1:])
            dx, dy = (int(p) for p in dst.split("_")[1:])
            manhattan = abs(sx - dx) + abs(sy - dy)
            assert design.routes.route(flow.name).hop_count == manhattan

    @pytest.mark.parametrize("engine", [ENGINE_INDEXED, ENGINE_LEGACY])
    def test_negative_congestion_factor_rejected(self, three_switch_design, engine):
        # At -3.0 the first two flows drive A->B and B->A to weight 0, a
        # zero-weight cycle the third flow's search would loop on.  At inf
        # or 1e300 a path's cost no longer grows by a link's weight, so the
        # legacy search loops as well.
        for factor in (-3.0, float("inf"), 1e300):
            with pytest.raises(RouteError, match="congestion_factor must be non-negative"):
                compute_routes(three_switch_design, congestion_factor=factor, engine=engine)
        assert len(three_switch_design.routes) == 0
        # A large factor inside the bound still routes, the same on both engines.
        compute_routes(three_switch_design, congestion_factor=1e12, engine=engine, cross_check=True)
        assert len(three_switch_design.routes) > 0

    def test_congestion_mode_is_deterministic(self, d26_traffic):
        from repro.synthesis.builder import SynthesisConfig, synthesize_design

        first = synthesize_design(d26_traffic, SynthesisConfig(n_switches=8))
        second = synthesize_design(d26_traffic, SynthesisConfig(n_switches=8))
        assert first.routes == second.routes
