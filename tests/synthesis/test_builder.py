"""Tests for application-specific topology synthesis (repro.synthesis.builder)."""

import pytest

from repro.core.cdg import build_cdg
from repro.errors import SynthesisError
from repro.model.validation import validate_design
from repro.synthesis.builder import SynthesisConfig, build_switch_network, synthesize_design
from repro.synthesis.partition import partition_cores


class TestConfig:
    def test_defaults_are_valid(self):
        config = SynthesisConfig(n_switches=8)
        assert config.extra_link_fraction > 0

    def test_bad_switch_count_rejected(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(n_switches=0)

    def test_negative_extra_links_rejected(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(n_switches=4, extra_link_fraction=-1)

    def test_negative_congestion_factor_rejected(self):
        with pytest.raises(SynthesisError, match="congestion_factor must be non-negative"):
            SynthesisConfig(n_switches=4, congestion_factor=-3.0)

    def test_small_degree_rejected(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(n_switches=4, max_switch_degree=1)

    def test_unknown_routing_rejected(self):
        with pytest.raises(SynthesisError):
            SynthesisConfig(n_switches=4, routing="magic")

    @pytest.mark.parametrize(
        "knob, value, kind",
        [
            ("extra_link_fraction", "0.5", "a number"),
            ("extra_link_fraction", True, "a number"),
            ("max_switch_degree", 4.0, "an integer"),
            ("max_switch_degree", True, "an integer"),
            ("balance_slack", "1", "an integer"),
            ("balance_slack", False, "an integer"),
            ("congestion_factor", None, "a number"),
            ("congestion_factor", True, "a number"),
        ],
    )
    def test_mistyped_knob_rejected(self, knob, value, kind):
        with pytest.raises(SynthesisError, match=f"{knob} must be {kind}, got {value!r}"):
            SynthesisConfig(n_switches=4, **{knob: value})

    def test_numeric_knobs_accept_ints_and_floats(self):
        config = SynthesisConfig(n_switches=4, extra_link_fraction=1, congestion_factor=2)
        assert (config.extra_link_fraction, config.congestion_factor) == (1, 2)


class TestSwitchNetwork:
    def test_backbone_is_connected(self, d26_traffic):
        config = SynthesisConfig(n_switches=10, extra_link_fraction=0.0)
        core_map = partition_cores(d26_traffic, 10)
        topology = build_switch_network(d26_traffic, core_map, config)
        assert topology.switch_count == 10
        assert topology.is_connected()

    def test_pure_backbone_is_a_tree(self, d26_traffic):
        config = SynthesisConfig(n_switches=10, extra_link_fraction=0.0)
        core_map = partition_cores(d26_traffic, 10)
        topology = build_switch_network(d26_traffic, core_map, config)
        # A bidirectional spanning tree over 10 switches has 9 * 2 links.
        assert topology.link_count == 18

    def test_extra_links_respect_budget(self, d26_traffic):
        core_map = partition_cores(d26_traffic, 10)
        sparse = build_switch_network(
            d26_traffic, core_map, SynthesisConfig(n_switches=10, extra_link_fraction=0.0)
        )
        dense = build_switch_network(
            d26_traffic, core_map, SynthesisConfig(n_switches=10, extra_link_fraction=1.0)
        )
        budget = 10  # extra_link_fraction * n_switches
        assert sparse.link_count <= dense.link_count <= sparse.link_count + 2 * budget

    def test_degree_budget_respected_for_extra_links(self, d36_8_traffic):
        config = SynthesisConfig(n_switches=12, extra_link_fraction=2.0, max_switch_degree=3)
        core_map = partition_cores(d36_8_traffic, 12)
        backbone = build_switch_network(
            d36_8_traffic, core_map, SynthesisConfig(n_switches=12, extra_link_fraction=0.0)
        )
        topology = build_switch_network(d36_8_traffic, core_map, config)

        def undirected_degree(topo, switch):
            neighbors = set(topo.neighbors(switch))
            neighbors.update(link.src for link in topo.in_links(switch))
            return len(neighbors)

        for switch in topology.switches:
            base = undirected_degree(backbone, switch)
            assert undirected_degree(topology, switch) <= max(base, config.max_switch_degree)


class TestSynthesizeDesign:
    def test_design_is_valid(self, d26_traffic):
        design = synthesize_design(d26_traffic, SynthesisConfig(n_switches=8))
        validate_design(design)

    def test_every_inter_switch_flow_routed(self, d26_traffic):
        design = synthesize_design(d26_traffic, SynthesisConfig(n_switches=8))
        for flow in design.traffic.flows:
            src, dst = design.switch_of(flow.src), design.switch_of(flow.dst)
            assert design.routes.has_route(flow.name) == (src != dst)

    def test_link_lengths_assigned(self, d26_traffic):
        design = synthesize_design(d26_traffic, SynthesisConfig(n_switches=8))
        assert all(
            design.topology.link_length(link) > 0 for link in design.topology.links
        )

    def test_deterministic(self, d26_traffic):
        first = synthesize_design(d26_traffic, SynthesisConfig(n_switches=8))
        second = synthesize_design(d26_traffic, SynthesisConfig(n_switches=8))
        assert first.topology == second.topology
        assert first.routes == second.routes

    def test_updown_routing_gives_acyclic_cdg(self, d36_8_traffic):
        design = synthesize_design(
            d36_8_traffic, SynthesisConfig(n_switches=14, routing="updown")
        )
        assert build_cdg(design).is_acyclic()

    def test_dense_traffic_with_shortcuts_creates_cycles(self, d36_8_traffic):
        """The situation the paper targets: custom topology + shortest-path
        routing yields a cyclic CDG for sufficiently rich traffic."""
        design = synthesize_design(d36_8_traffic, SynthesisConfig(n_switches=14))
        assert not build_cdg(design).is_acyclic()

    def test_switch_count_helper(self, d26_traffic):
        design = synthesize_design(d26_traffic, SynthesisConfig(n_switches=6))
        assert design.topology.switch_count == 6

    def test_custom_name(self, d26_traffic):
        design = synthesize_design(
            d26_traffic, SynthesisConfig(n_switches=6), name="custom"
        )
        assert design.name == "custom"

    def test_traffic_is_copied(self, d26_traffic):
        design = synthesize_design(d26_traffic, SynthesisConfig(n_switches=6))
        design.traffic.add_core("extra_core")
        assert not d26_traffic.has_core("extra_core")
