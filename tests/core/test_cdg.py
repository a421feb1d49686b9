"""Tests for the channel dependency graph (repro.core.cdg)."""

import pytest

from repro.core.cdg import ChannelDependencyGraph, build_cdg
from repro.errors import DesignError
from repro.examples_data.paper_ring import paper_channel
from repro.model.channels import Channel, Link


def ch(src, dst, vc=0):
    return Channel(Link(src, dst), vc)


class TestConstruction:
    def test_add_dependency_creates_nodes_and_edge(self):
        cdg = ChannelDependencyGraph()
        cdg.add_dependency(ch("A", "B"), ch("B", "C"), "f0")
        assert cdg.channel_count == 2
        assert cdg.edge_count == 1
        assert cdg.has_dependency(ch("A", "B"), ch("B", "C"))

    def test_add_route_creates_all_pairs(self):
        cdg = ChannelDependencyGraph()
        cdg.add_route("f0", [ch("A", "B"), ch("B", "C"), ch("C", "D")])
        assert cdg.edge_count == 2
        assert cdg.channel_count == 3

    def test_single_channel_route_creates_isolated_node(self):
        cdg = ChannelDependencyGraph()
        cdg.add_route("f0", [ch("A", "B")])
        assert cdg.channel_count == 1
        assert cdg.edge_count == 0

    def test_edge_flows_are_accumulated(self):
        cdg = ChannelDependencyGraph()
        cdg.add_dependency(ch("A", "B"), ch("B", "C"), "f0")
        cdg.add_dependency(ch("A", "B"), ch("B", "C"), "f1")
        assert cdg.flows_on_edge(ch("A", "B"), ch("B", "C")) == frozenset({"f0", "f1"})

    def test_flows_on_missing_edge_is_empty(self):
        cdg = ChannelDependencyGraph()
        assert cdg.flows_on_edge(ch("A", "B"), ch("B", "C")) == frozenset()

    def test_self_loop_dependency_rejected(self):
        cdg = ChannelDependencyGraph()
        with pytest.raises(DesignError):
            cdg.add_dependency(ch("A", "B"), ch("A", "B"), "f0")

    def test_sorted_views_track_mutations(self):
        """channels/edges are cached between calls but never stale."""
        cdg = ChannelDependencyGraph()
        cdg.add_route("f0", [ch("B", "C"), ch("C", "D")])
        assert cdg.channels == sorted(cdg.channels)
        first_edges = cdg.edges
        # Mutating the returned lists must not corrupt the cache.
        first_edges.append(("bogus", "entry"))
        assert cdg.edges == [(ch("B", "C"), ch("C", "D"))]
        cdg.add_route("f1", [ch("A", "B"), ch("B", "C")])
        assert cdg.channels == [ch("A", "B"), ch("B", "C"), ch("C", "D")]
        assert cdg.edges == [
            (ch("A", "B"), ch("B", "C")),
            (ch("B", "C"), ch("C", "D")),
        ]


class TestQueries:
    def test_successors_and_predecessors(self):
        cdg = ChannelDependencyGraph()
        cdg.add_route("f0", [ch("A", "B"), ch("B", "C"), ch("C", "D")])
        assert cdg.successors(ch("A", "B")) == [ch("B", "C")]
        assert cdg.predecessors(ch("C", "D")) == [ch("B", "C")]
        assert cdg.out_degree(ch("B", "C")) == 1
        assert cdg.in_degree(ch("B", "C")) == 1


class TestAcyclicity:
    def test_linear_route_is_acyclic(self):
        cdg = ChannelDependencyGraph()
        cdg.add_route("f0", [ch("A", "B"), ch("B", "C"), ch("C", "D")])
        assert cdg.is_acyclic()

    def test_two_flow_cycle_detected(self):
        cdg = ChannelDependencyGraph()
        cdg.add_route("f0", [ch("A", "B"), ch("B", "A")])
        cdg.add_route("f1", [ch("B", "A"), ch("A", "B")])
        assert not cdg.is_acyclic()

    def test_empty_cdg_is_acyclic(self):
        assert ChannelDependencyGraph().is_acyclic()


class TestBuildCdg:
    def test_paper_ring_cdg_matches_figure2(self, ring_design_fixture):
        cdg = build_cdg(ring_design_fixture)
        # Figure 2: four channels, dependencies L1->L2, L2->L3, L3->L4, L4->L1.
        assert cdg.channel_count == 4
        assert cdg.edge_count == 4
        assert cdg.has_dependency(paper_channel("L1"), paper_channel("L2"))
        assert cdg.has_dependency(paper_channel("L4"), paper_channel("L1"))
        assert not cdg.is_acyclic()

    def test_paper_ring_edge_flow_labels(self, ring_design_fixture):
        cdg = build_cdg(ring_design_fixture)
        assert cdg.flows_on_edge(paper_channel("L1"), paper_channel("L2")) == frozenset(
            {"F1", "F4"}
        )
        assert cdg.flows_on_edge(paper_channel("L4"), paper_channel("L1")) == frozenset(
            {"F3"}
        )

    def test_build_from_route_set_directly(self, ring_design_fixture):
        cdg = build_cdg(ring_design_fixture.routes)
        assert cdg.edge_count == 4

    def test_unused_channels_are_not_vertices(self, ring_design_fixture):
        unused = ring_design_fixture.topology.add_virtual_channel(
            ring_design_fixture.topology.links[0]
        )
        assert not build_cdg(ring_design_fixture).has_channel(unused)

    def test_mesh_with_xy_routing_is_acyclic(self, small_mesh_design):
        assert build_cdg(small_mesh_design).is_acyclic()

    def test_line_design_is_acyclic(self, simple_line_design):
        assert build_cdg(simple_line_design).is_acyclic()
