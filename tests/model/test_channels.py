"""Tests for links and channels (repro.model.channels)."""

import pytest

from repro.errors import TopologyError
from repro.model.channels import Channel, Link, channels_are_adjacent


class TestLink:
    def test_name_without_index(self):
        assert Link("SW1", "SW2").name == "SW1->SW2"

    def test_name_with_parallel_index(self):
        assert Link("SW1", "SW2", index=1).name == "SW1->SW2#1"

    def test_reversed_swaps_endpoints(self):
        link = Link("A", "B", index=2)
        assert link.reversed() == Link("B", "A", index=2)

    def test_reversed_twice_is_identity(self):
        link = Link("A", "B")
        assert link.reversed().reversed() == link

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError):
            Link("A", "A")

    def test_empty_endpoint_rejected(self):
        with pytest.raises(TopologyError):
            Link("", "B")

    def test_negative_index_rejected(self):
        with pytest.raises(TopologyError):
            Link("A", "B", index=-1)

    def test_links_are_hashable_and_comparable(self):
        assert len({Link("A", "B"), Link("A", "B"), Link("B", "A")}) == 2
        assert Link("A", "B") < Link("B", "A")

    def test_str_is_name(self):
        assert str(Link("A", "B")) == "A->B"


class TestChannel:
    def test_default_vc_is_zero(self):
        assert Channel(Link("A", "B")).vc == 0

    def test_name_includes_vc(self):
        assert Channel(Link("A", "B"), 3).name == "A->B.vc3"

    def test_src_dst_delegate_to_link(self):
        channel = Channel(Link("A", "B"))
        assert channel.src == "A"
        assert channel.dst == "B"

    def test_negative_vc_rejected(self):
        with pytest.raises(TopologyError):
            Channel(Link("A", "B"), -1)

    def test_channels_on_same_link_differ_by_vc(self):
        link = Link("A", "B")
        assert Channel(link, 0) != Channel(link, 1)

    def test_ordering_is_deterministic(self):
        link = Link("A", "B")
        assert sorted([Channel(link, 1), Channel(link, 0)]) == [
            Channel(link, 0),
            Channel(link, 1),
        ]


class TestAdjacency:
    def test_adjacent_channels(self):
        first = Channel(Link("A", "B"))
        second = Channel(Link("B", "C"))
        assert channels_are_adjacent(first, second)

    def test_non_adjacent_channels(self):
        first = Channel(Link("A", "B"))
        second = Channel(Link("C", "D"))
        assert not channels_are_adjacent(first, second)

    def test_adjacency_is_directional(self):
        first = Channel(Link("A", "B"))
        second = Channel(Link("B", "A"))
        assert channels_are_adjacent(first, second)
        assert channels_are_adjacent(second, first)
        third = Channel(Link("C", "A"))
        assert channels_are_adjacent(third, first)
        assert not channels_are_adjacent(first, third)
