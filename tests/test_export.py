"""Tests for the DOT / report exporters (repro.export)."""

import pytest

from repro.core.cdg import build_cdg
from repro.core.cycles import find_smallest_cycle
from repro.core.removal import remove_deadlocks
from repro.export import cdg_to_dot, design_report, topology_to_dot


class TestTopologyDot:
    def test_contains_all_switches_and_links(self, ring_design_fixture):
        dot = topology_to_dot(ring_design_fixture)
        assert dot.startswith("digraph")
        assert dot.rstrip().endswith("}")
        for switch in ring_design_fixture.topology.switches:
            assert f'"{switch}"' in dot
        assert dot.count("->") >= ring_design_fixture.topology.link_count

    def test_cores_shown_for_designs(self, ring_design_fixture):
        dot = topology_to_dot(ring_design_fixture)
        assert '"core_F1_src"' in dot

    def test_accepts_bare_topology(self, ring_design_fixture):
        dot = topology_to_dot(ring_design_fixture.topology)
        assert "core_F1_src" not in dot
        assert '"SW1"' in dot

    def test_extra_vcs_highlighted(self, ring_design_fixture):
        result = remove_deadlocks(ring_design_fixture)
        dot = topology_to_dot(result.design)
        assert "crimson" in dot
        assert "2 VCs" in dot

    def test_parallel_links_dashed(self, ring_design_fixture):
        result = remove_deadlocks(ring_design_fixture, resource_mode="physical")
        dot = topology_to_dot(result.design)
        assert "style=dashed" in dot


class TestCdgDot:
    def test_contains_all_channels_and_dependencies(self, ring_design_fixture):
        cdg = build_cdg(ring_design_fixture)
        dot = cdg_to_dot(cdg)
        assert dot.count("->") >= cdg.edge_count
        assert '"SW1->SW2.vc0"' in dot

    def test_flow_labels_present(self, ring_design_fixture):
        cdg = build_cdg(ring_design_fixture)
        dot = cdg_to_dot(cdg)
        assert "F1" in dot
        assert "F3" in dot

    def test_cycle_highlighting(self, ring_design_fixture):
        cdg = build_cdg(ring_design_fixture)
        cycle = find_smallest_cycle(cdg)
        dot = cdg_to_dot(cdg, highlight_cycle=cycle)
        assert dot.count("crimson") >= len(cycle)

    def test_acyclic_cdg_renders_without_highlight(self, simple_line_design):
        dot = cdg_to_dot(build_cdg(simple_line_design))
        assert "crimson" not in dot


class TestDesignReport:
    def test_report_lists_links_and_routes(self, ring_design_fixture):
        report = design_report(ring_design_fixture)
        assert "switches       : 4" in report
        assert "SW1->SW2" in report
        assert "F1" in report

    def test_report_counts_added_resources(self, ring_design_fixture):
        result = remove_deadlocks(ring_design_fixture)
        report = design_report(result.design)
        assert "1 extra VCs" in report
