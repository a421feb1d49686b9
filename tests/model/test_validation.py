"""Tests for whole-design validation (repro.model.validation)."""

import pytest

from repro.errors import ValidationError
from repro.model.channels import Channel, Link
from repro.model.routes import Route
from repro.model.validation import (
    collect_problems,
    validate_core_mapping,
    validate_design,
    validate_routes,
    validate_topology,
)


class TestHealthyDesigns:
    def test_paper_ring_is_valid(self, ring_design_fixture):
        validate_design(ring_design_fixture)
        assert collect_problems(ring_design_fixture) == []

    def test_line_design_is_valid(self, simple_line_design):
        assert collect_problems(simple_line_design) == []

    def test_mesh_design_is_valid(self, small_mesh_design):
        validate_design(small_mesh_design)


class TestTopologyProblems:
    def test_disconnected_topology_reported(self, simple_line_design):
        simple_line_design.topology.add_switch("ISOLATED")
        problems = validate_topology(simple_line_design)
        assert any("not connected" in p for p in problems)

    def test_empty_topology_reported(self, simple_line_design):
        simple_line_design.topology._switches.clear()
        simple_line_design.topology._switch_set.clear()
        problems = validate_topology(simple_line_design)
        assert any("no switches" in p for p in problems)


class TestCoreMappingProblems:
    def test_unmapped_core_reported(self, simple_line_design):
        del simple_line_design.core_map["c1"]
        problems = validate_core_mapping(simple_line_design)
        assert any("c1" in p for p in problems)

    def test_mapping_to_unknown_switch_reported(self, simple_line_design):
        simple_line_design.core_map["c1"] = "NOPE"
        problems = validate_core_mapping(simple_line_design)
        assert any("NOPE" in p for p in problems)

    def test_mapping_of_unknown_core_reported(self, simple_line_design):
        simple_line_design.core_map["ghost"] = "A"
        problems = validate_core_mapping(simple_line_design)
        assert any("ghost" in p for p in problems)


class TestRouteProblems:
    def test_missing_route_reported(self, simple_line_design):
        simple_line_design.routes.remove_route("f0")
        problems = validate_routes(simple_line_design)
        assert any("no route" in p for p in problems)

    def test_same_switch_flow_needs_no_route(self, simple_line_design):
        # move c2 onto switch A so f0/f1 become single-switch flows
        simple_line_design.core_map["c2"] = "A"
        simple_line_design.routes.remove_route("f0")
        simple_line_design.routes.remove_route("f1")
        problems = validate_routes(simple_line_design)
        assert problems == []

    def test_route_with_unknown_vc_reported(self, simple_line_design):
        route = Route([Channel(Link("A", "B"), 5), Channel(Link("B", "C"), 0)])
        simple_line_design.routes.set_route("f0", route)
        problems = validate_routes(simple_line_design)
        assert any("VC 5" in p for p in problems)

    def test_route_with_unknown_link_reported(self, simple_line_design):
        simple_line_design.topology.remove_link(Link("B", "C"))
        problems = validate_routes(simple_line_design)
        assert any("unknown link" in p for p in problems)

    def test_route_with_wrong_endpoints_reported(self, simple_line_design):
        # f0 should start at A (core c0), give it a route starting at B
        route = Route([Channel(Link("B", "C"))])
        simple_line_design.routes.set_route("f0", route)
        problems = validate_routes(simple_line_design)
        assert any("starts at" in p for p in problems)

    def test_route_for_unknown_flow_reported(self, simple_line_design):
        simple_line_design.routes.set_route(
            "ghost", Route([Channel(Link("A", "B"))])
        )
        problems = validate_routes(simple_line_design)
        assert any("unknown flow" in p for p in problems)

    def test_non_contiguous_route_reported(self, simple_line_design):
        # Route.__init__ enforces contiguity, so forge a broken route the
        # way a buggy tool or hand-edited design file would deliver one.
        broken = Route.__new__(Route)
        broken._channels = (
            Channel(Link("A", "B")),
            Channel(Link("C", "B")),  # B != C: the hops do not connect
        )
        simple_line_design.routes.set_route("f0", broken)
        problems = validate_routes(simple_line_design)
        assert any("not contiguous" in p for p in problems)

    def test_non_contiguous_route_fails_validate_design(self, simple_line_design):
        broken = Route.__new__(Route)
        broken._channels = (
            Channel(Link("A", "B")),
            Channel(Link("C", "B")),
        )
        simple_line_design.routes.set_route("f0", broken)
        with pytest.raises(ValidationError):
            validate_design(simple_line_design)

    def test_route_repeating_channel_reported(self, simple_line_design):
        simple_line_design.topology.add_bidirectional_link("A", "C")
        route = Route(
            [
                Channel(Link("A", "B")),
                Channel(Link("B", "C")),
                Channel(Link("C", "A")),
                Channel(Link("A", "B")),
                Channel(Link("B", "C")),
            ]
        )
        simple_line_design.routes.set_route("f0", route)
        problems = validate_routes(simple_line_design)
        assert any("twice" in p for p in problems)


class TestValidateDesign:
    def test_validation_error_carries_all_problems(self, simple_line_design):
        del simple_line_design.core_map["c0"]
        simple_line_design.routes.remove_route("f1")
        with pytest.raises(ValidationError) as excinfo:
            validate_design(simple_line_design)
        assert len(excinfo.value.problems) >= 2
