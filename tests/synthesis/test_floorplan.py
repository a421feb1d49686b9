"""Tests for the grid floorplanner (repro.synthesis.floorplan)."""

import pytest

from repro.synthesis.floorplan import (
    DEFAULT_TILE_MM,
    MINIMUM_LINK_MM,
    assign_link_lengths,
    grid_dimensions,
    place_switches,
)


class TestGridDimensions:
    def test_perfect_square(self):
        assert grid_dimensions(9) == (3, 3)

    def test_non_square(self):
        rows, cols = grid_dimensions(10)
        assert rows * cols >= 10
        assert cols == 4

    def test_single_switch(self):
        assert grid_dimensions(1) == (1, 1)


class TestPlacement:
    def test_all_switches_placed(self, d26_design_14sw):
        positions = place_switches(d26_design_14sw)
        assert set(positions) == set(d26_design_14sw.topology.switches)

    def test_positions_are_distinct(self, d26_design_14sw):
        positions = place_switches(d26_design_14sw)
        assert len(set(positions.values())) == len(positions)

    def test_positions_on_tile_grid(self, d26_design_14sw):
        positions = place_switches(d26_design_14sw, tile_mm=2.0)
        for x, y in positions.values():
            assert x % 2.0 == 0
            assert y % 2.0 == 0

    def test_placement_deterministic(self, d26_design_14sw):
        assert place_switches(d26_design_14sw) == place_switches(d26_design_14sw)

    def test_placement_improves_over_initial_order(self, d36_8_design_14sw):
        """The swap pass must never make the weighted wirelength worse."""
        from repro.synthesis.floorplan import _initial_positions, _wirelength

        design = d36_8_design_14sw
        demands = {}
        for link, load in design.link_load().items():
            demands[(link.src, link.dst)] = demands.get((link.src, link.dst), 0.0) + max(
                load, 1.0
            )
        initial = _initial_positions(design.topology.switches, DEFAULT_TILE_MM)
        optimised = place_switches(design)
        assert _wirelength(optimised, demands) <= _wirelength(initial, demands) + 1e-9


class TestLinkLengths:
    def test_lengths_written_to_topology(self, d26_design_14sw):
        design = d26_design_14sw.copy()
        assign_link_lengths(design)
        for link in design.topology.links:
            assert design.topology.link_length(link) >= 0.5

    def test_lengths_follow_manhattan_distance(self, simple_line_design):
        design = simple_line_design.copy()
        positions = {"A": (0.0, 0.0), "B": (2.0, 0.0), "C": (2.0, 4.0)}
        assign_link_lengths(design, positions=positions)
        from repro.model.channels import Link

        assert design.topology.link_length(Link("A", "B")) == 2.0
        assert design.topology.link_length(Link("B", "C")) == 4.0

    def test_minimum_length_enforced(self, simple_line_design):
        design = simple_line_design.copy()
        positions = {"A": (0.0, 0.0), "B": (0.0, 0.0), "C": (0.0, 0.0)}
        assign_link_lengths(design, positions=positions)
        for link in design.topology.links:
            assert design.topology.link_length(link) == MINIMUM_LINK_MM
