"""Tests for the complete design object (repro.model.design)."""

import pytest

from repro.errors import DesignError
from repro.model.channels import Channel, Link


class TestCoreMapping:
    def test_switch_of(self, ring_design_fixture):
        assert ring_design_fixture.switch_of("core_F1_src") == "SW1"

    def test_unattached_core_raises(self, simple_line_design):
        del simple_line_design.core_map["c0"]
        with pytest.raises(DesignError):
            simple_line_design.switch_of("c0")

    def test_cores_on(self, simple_line_design):
        assert simple_line_design.cores_on("A") == ["c0"]
        assert simple_line_design.cores_on("B") == ["c1"]


class TestAccessors:
    def test_flows_property(self, simple_line_design):
        assert [f.name for f in simple_line_design.flows] == ["f0", "f1"]

    def test_route_of(self, simple_line_design):
        assert simple_line_design.routes.route("f0").hop_count == 2

    def test_extra_vc_count_initially_zero(self, simple_line_design):
        assert simple_line_design.extra_vc_count == 0

    def test_channel_count(self, simple_line_design):
        assert simple_line_design.channel_count == 4


class TestLoads:
    def test_channel_load_accumulates_flow_bandwidth(self, simple_line_design):
        load = simple_line_design.channel_load()
        assert load[Channel(Link("A", "B"))] == 100.0
        assert load[Channel(Link("C", "B"))] == 50.0

    def test_unused_channels_have_zero_load(self, simple_line_design):
        load = simple_line_design.channel_load()
        assert all(value >= 0 for value in load.values())
        assert len(load) == simple_line_design.channel_count

    def test_link_load_matches_channel_load(self, simple_line_design):
        channel_load = simple_line_design.channel_load()
        link_load = simple_line_design.link_load()
        for link, value in link_load.items():
            expected = sum(v for c, v in channel_load.items() if c.link == link)
            assert value == pytest.approx(expected)


class TestPortCounts:
    def test_port_counts_include_local_cores(self, simple_line_design):
        counts = simple_line_design.switch_port_counts()
        # Switch B has 2 incoming links, 2 outgoing links and 1 local core.
        assert counts["B"]["in_ports"] == 3
        assert counts["B"]["out_ports"] == 3
        assert counts["B"]["vcs"] == 3

    def test_vcs_grow_with_added_virtual_channels(self, simple_line_design):
        before = simple_line_design.switch_port_counts()["B"]["vcs"]
        simple_line_design.topology.add_virtual_channel(Link("A", "B"))
        after = simple_line_design.switch_port_counts()["B"]["vcs"]
        assert after == before + 1


class TestCopy:
    def test_copy_is_deep_for_topology_and_routes(self, simple_line_design):
        clone = simple_line_design.copy()
        clone.topology.add_virtual_channel(Link("A", "B"))
        clone.routes.remove_route("f0")
        assert simple_line_design.topology.vc_count(Link("A", "B")) == 1
        assert simple_line_design.routes.has_route("f0")

    def test_copy_can_rename(self, simple_line_design):
        assert simple_line_design.copy(name="other").name == "other"
