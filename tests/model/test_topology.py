"""Tests for the topology graph (repro.model.topology)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.model.channels import Channel, Link
from repro.model.topology import Topology


@pytest.fixture
def triangle() -> Topology:
    topo = Topology("triangle")
    topo.add_switches(["A", "B", "C"])
    topo.add_link("A", "B")
    topo.add_link("B", "C")
    topo.add_link("C", "A")
    return topo


@st.composite
def random_topologies(draw) -> Topology:
    """One to seven switches joined by random directed links, parallel ones included."""
    names = [f"S{i}" for i in range(draw(st.integers(min_value=1, max_value=7)))]
    topology = Topology("random")
    topology.add_switches(names)
    links = st.tuples(st.sampled_from(names), st.sampled_from(names), st.integers(0, 1))
    for src, dst, index in draw(st.lists(links, max_size=14, unique=True)):
        if src != dst:
            topology.add_link(src, dst, index=index)
    return topology


class TestSwitches:
    def test_add_and_query(self, triangle):
        assert triangle.switch_count == 3
        assert triangle.has_switch("A")
        assert not triangle.has_switch("Z")

    def test_duplicate_switch_rejected(self, triangle):
        with pytest.raises(TopologyError):
            triangle.add_switch("A")

    def test_empty_switch_name_rejected(self):
        topo = Topology()
        with pytest.raises(TopologyError):
            topo.add_switch("")

    def test_iteration_and_contains(self, triangle):
        assert list(triangle) == ["A", "B", "C"]
        assert "B" in triangle

    def test_switches_property_is_a_copy(self, triangle):
        switches = triangle.switches
        switches.append("Z")
        assert triangle.switch_count == 3


class TestLinks:
    def test_add_link_returns_link(self, triangle):
        link = triangle.find_link("A", "B")
        assert link == Link("A", "B")

    def test_link_count(self, triangle):
        assert triangle.link_count == 3

    def test_duplicate_link_rejected(self, triangle):
        with pytest.raises(TopologyError):
            triangle.add_link("A", "B")

    def test_parallel_links_allowed_with_distinct_index(self, triangle):
        triangle.add_link("A", "B", index=1)
        assert triangle.link_count == 4

    def test_unknown_switch_rejected(self, triangle):
        with pytest.raises(TopologyError):
            triangle.add_link("A", "Z")

    def test_bidirectional_link_adds_two(self):
        topo = Topology()
        topo.add_switches(["A", "B"])
        forward, backward = topo.add_bidirectional_link("A", "B")
        assert forward == Link("A", "B")
        assert backward == Link("B", "A")
        assert topo.link_count == 2

    def test_remove_link(self, triangle):
        triangle.remove_link(Link("A", "B"))
        assert triangle.link_count == 2
        with pytest.raises(TopologyError):
            triangle.remove_link(Link("A", "B"))

    def test_out_and_in_links(self, triangle):
        assert triangle.out_links("A") == [Link("A", "B")]
        assert triangle.in_links("A") == [Link("C", "A")]

    def test_neighbors_and_degree(self, triangle):
        assert triangle.neighbors("A") == ["B"]
        assert len(triangle.out_links("A")) + len(triangle.in_links("A")) == 2

    def test_link_length_default_and_set(self, triangle):
        link = Link("A", "B")
        assert triangle.link_length(link) == 1.0
        triangle.set_link_length(link, 3.5)
        assert triangle.link_length(link) == 3.5

    def test_link_length_rejects_nonpositive(self, triangle):
        with pytest.raises(TopologyError):
            triangle.set_link_length(Link("A", "B"), 0.0)

    def test_link_length_rejects_unknown_link(self, triangle):
        with pytest.raises(TopologyError):
            triangle.set_link_length(Link("A", "C"), 1.0)


class TestVirtualChannels:
    def test_initial_vc_count_is_one(self, triangle):
        assert triangle.vc_count(Link("A", "B")) == 1

    def test_add_virtual_channel_returns_next_index(self, triangle):
        link = Link("A", "B")
        first = triangle.add_virtual_channel(link)
        second = triangle.add_virtual_channel(link)
        assert (first.vc, second.vc) == (1, 2)
        assert triangle.vc_count(link) == 3

    def test_add_vc_on_unknown_link_rejected(self, triangle):
        with pytest.raises(TopologyError):
            triangle.add_virtual_channel(Link("A", "C"))

    def test_has_channel(self, triangle):
        link = Link("A", "B")
        assert triangle.has_channel(Channel(link, 0))
        assert not triangle.has_channel(Channel(link, 1))
        triangle.add_virtual_channel(link)
        assert triangle.has_channel(Channel(link, 1))

    def test_channels_enumeration(self, triangle):
        triangle.add_virtual_channel(Link("A", "B"))
        channels = triangle.channels()
        assert Channel(Link("A", "B"), 1) in channels
        assert len(channels) == triangle.channel_count == 4

    def test_extra_vc_count(self, triangle):
        assert triangle.extra_vc_count == 0
        triangle.add_virtual_channel(Link("A", "B"))
        triangle.add_virtual_channel(Link("B", "C"))
        assert triangle.extra_vc_count == 2

    def test_vc_count_rejects_unknown_link(self, triangle):
        with pytest.raises(TopologyError):
            triangle.vc_count(Link("A", "C"))


class TestGraphQueries:
    def test_connected(self, triangle):
        assert triangle.is_connected()

    def test_disconnected(self):
        topo = Topology()
        topo.add_switches(["A", "B", "C"])
        topo.add_link("A", "B")
        assert not topo.is_connected()

    def test_empty_topology_is_connected(self):
        assert Topology().is_connected()

    @settings(max_examples=80, deadline=None)
    @given(topology=random_topologies(), data=st.data())
    def test_hop_distances_match_networkx(self, topology, data):
        origin = data.draw(st.sampled_from(topology.switches))
        undirected = nx.Graph()
        undirected.add_nodes_from(topology.switches)
        undirected.add_edges_from((link.src, link.dst) for link in topology.links)
        expected = nx.single_source_shortest_path_length(undirected, origin)
        assert topology.hop_distances(origin) == expected
        assert topology.is_connected() == nx.is_connected(undirected)

    def test_hop_distances_from_unknown_switch_raise(self, triangle):
        with pytest.raises(TopologyError):
            triangle.hop_distances("Z")

    def test_unknown_switch_queries_raise(self, triangle):
        with pytest.raises(TopologyError):
            triangle.out_links("Z")
        with pytest.raises(TopologyError):
            triangle.in_links("Z")


class TestCopyAndEquality:
    def test_copy_is_independent(self, triangle):
        clone = triangle.copy()
        clone.add_virtual_channel(Link("A", "B"))
        assert triangle.vc_count(Link("A", "B")) == 1
        assert clone.vc_count(Link("A", "B")) == 2

    def test_equality_considers_links_and_vcs(self, triangle):
        clone = triangle.copy()
        assert clone == triangle
        clone.add_virtual_channel(Link("A", "B"))
        assert clone != triangle

    def test_equality_with_other_type(self, triangle):
        assert triangle != 42
