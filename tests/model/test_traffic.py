"""Tests for the communication graph (repro.model.traffic)."""

import pytest

from repro.errors import TrafficError
from repro.model.traffic import CommunicationGraph, Flow


@pytest.fixture
def graph() -> CommunicationGraph:
    g = CommunicationGraph("g")
    g.add_cores(["a", "b", "c"])
    g.add_flow("f0", "a", "b", 100.0)
    g.add_flow("f1", "b", "c", 50.0)
    g.add_flow("f2", "a", "c", 25.0)
    return g


class TestFlow:
    def test_valid_flow(self):
        flow = Flow("f", "a", "b", 10.0, 4)
        assert flow.bandwidth == 10.0
        assert flow.packet_size_flits == 4

    def test_self_flow_rejected(self):
        with pytest.raises(TrafficError):
            Flow("f", "a", "a")

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(TrafficError):
            Flow("f", "a", "b", 0.0)

    def test_empty_name_rejected(self):
        with pytest.raises(TrafficError):
            Flow("", "a", "b")

    def test_zero_packet_size_rejected(self):
        with pytest.raises(TrafficError):
            Flow("f", "a", "b", 1.0, 0)


class TestCores:
    def test_core_count(self, graph):
        assert graph.core_count == 3

    def test_duplicate_core_rejected(self, graph):
        with pytest.raises(TrafficError):
            graph.add_core("a")

    def test_empty_core_rejected(self, graph):
        with pytest.raises(TrafficError):
            graph.add_core("")


class TestFlows:
    def test_flow_lookup(self, graph):
        assert graph.flow("f0").dst == "b"

    def test_unknown_flow_raises(self, graph):
        with pytest.raises(TrafficError):
            graph.flow("nope")

    def test_duplicate_flow_rejected(self, graph):
        with pytest.raises(TrafficError):
            graph.add_flow("f0", "a", "c")

    def test_flow_with_unknown_core_rejected(self, graph):
        with pytest.raises(TrafficError):
            graph.add_flow("f9", "a", "zzz")

    def test_flows_sorted_by_name(self, graph):
        assert [f.name for f in graph.flows] == ["f0", "f1", "f2"]

    def test_flows_from_and_to(self, graph):
        assert [f.name for f in graph.flows_from("a")] == ["f0", "f2"]
        assert [f.name for f in graph.flows_to("c")] == ["f1", "f2"]

    def test_flows_between_and_bandwidth(self, graph):
        assert [f.name for f in graph.flows_between("a", "b")] == ["f0"]
        assert graph.bandwidth_between("a", "b") == 100.0
        assert graph.bandwidth_between("b", "a") == 0.0

    def test_total_bandwidth(self, graph):
        assert graph.total_bandwidth == 175.0

    def test_degrees(self, graph):
        assert graph.out_degree("a") == 2
        assert graph.in_degree("c") == 2

    def test_len_and_iter(self, graph):
        assert len(graph) == 3
        assert [f.name for f in graph] == ["f0", "f1", "f2"]


class TestCopyAndMerge:
    def test_copy_is_independent(self, graph):
        clone = graph.copy()
        clone.add_flow("f9", "c", "b", 1.0)
        assert not graph.has_flow("f9")
