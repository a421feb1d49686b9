"""Tests for cycle breaking (repro.core.breaker)."""

import pytest

from repro.core.breaker import break_cycle, flows_creating_dependency
from repro.core.cdg import build_cdg
from repro.core.cost import BACKWARD, FORWARD, build_cost_table
from repro.errors import RemovalError
from repro.examples_data.paper_ring import paper_channel, paper_ring_cycle


class TestFlowsCreatingDependency:
    def test_paper_ring_d1(self, ring_design_fixture):
        edge = (paper_channel("L1"), paper_channel("L2"))
        assert flows_creating_dependency(ring_design_fixture, edge) == ["F1", "F4"]

    def test_paper_ring_d4(self, ring_design_fixture):
        edge = (paper_channel("L4"), paper_channel("L1"))
        assert flows_creating_dependency(ring_design_fixture, edge) == ["F3"]

    def test_unrelated_edge_has_no_flows(self, ring_design_fixture):
        edge = (paper_channel("L1"), paper_channel("L3"))
        assert flows_creating_dependency(ring_design_fixture, edge) == []


class TestForwardBreak:
    def test_break_d1_adds_one_vc_and_reroutes_f1_f4(self, ring_design_fixture):
        action = break_cycle(ring_design_fixture, paper_ring_cycle(), 0, FORWARD)
        assert action.direction == FORWARD
        assert action.cost == 1
        assert action.added_vc_count == 1
        assert action.flows_rerouted == ("F1", "F4")
        # The new channel is L1 with VC 1.
        new_channel = next(iter(action.channels_added.values()))
        assert new_channel.link == paper_channel("L1").link
        assert new_channel.vc == 1

    def test_break_d1_removes_the_cycle(self, ring_design_fixture):
        break_cycle(ring_design_fixture, paper_ring_cycle(), 0, FORWARD)
        assert build_cdg(ring_design_fixture).is_acyclic()

    def test_break_d4_forward_duplicates_l4(self, ring_design_fixture):
        """Breaking D4 = (L4, L1) forward duplicates the channel before the
        edge (L4) and reroutes F3 onto it."""
        action = break_cycle(ring_design_fixture, paper_ring_cycle(), 3, FORWARD)
        assert action.flows_rerouted == ("F3",)
        assert action.added_vc_count == 1
        rerouted = ring_design_fixture.routes.route("F3")
        assert rerouted.channels[0].link == paper_channel("L4").link
        assert rerouted.channels[0].vc == 1
        assert build_cdg(ring_design_fixture).is_acyclic()

    def test_break_d4_backward_reroutes_f3_like_figure3(self, ring_design_fixture):
        """The paper's Figures 3/4: break D4 by adding L1' and rerouting F3
        onto it — in our terms a backward break of the closing dependency."""
        action = break_cycle(ring_design_fixture, paper_ring_cycle(), 3, BACKWARD)
        assert action.flows_rerouted == ("F3",)
        assert action.added_vc_count == 1
        rerouted = ring_design_fixture.routes.route("F3")
        assert rerouted.channels[1].link == paper_channel("L1").link
        assert rerouted.channels[1].vc == 1
        assert build_cdg(ring_design_fixture).is_acyclic()

    def test_break_matches_cost_table(self, ring_design_fixture):
        table = build_cost_table(paper_ring_cycle(), ring_design_fixture.routes, FORWARD)
        action = break_cycle(
            ring_design_fixture, paper_ring_cycle(), table.best_position, FORWARD
        )
        assert action.added_vc_count == table.best_cost

    def test_forward_cost_two_duplicates_two_channels(self, ring_design_fixture):
        """Breaking D2 forward must duplicate L1 and L2 (cost 2 in Table 1)."""
        action = break_cycle(ring_design_fixture, paper_ring_cycle(), 1, FORWARD)
        assert action.cost == 2
        assert action.added_vc_count == 2
        assert build_cdg(ring_design_fixture).is_acyclic()

    def test_topology_gains_the_vcs(self, ring_design_fixture):
        before = ring_design_fixture.topology.extra_vc_count
        action = break_cycle(ring_design_fixture, paper_ring_cycle(), 1, FORWARD)
        after = ring_design_fixture.topology.extra_vc_count
        assert after - before == action.added_vc_count


class TestBackwardBreak:
    def test_break_d2_backward_duplicates_only_l3(self, ring_design_fixture):
        action = break_cycle(ring_design_fixture, paper_ring_cycle(), 1, BACKWARD)
        assert action.direction == BACKWARD
        assert action.cost == 1
        assert action.flows_rerouted == ("F1",)
        new_channel = next(iter(action.channels_added.values()))
        assert new_channel.link == paper_channel("L3").link

    def test_backward_break_removes_the_cycle(self, ring_design_fixture):
        break_cycle(ring_design_fixture, paper_ring_cycle(), 1, BACKWARD)
        assert build_cdg(ring_design_fixture).is_acyclic()

    def test_backward_matches_cost_table(self, ring_design_fixture):
        table = build_cost_table(paper_ring_cycle(), ring_design_fixture.routes, BACKWARD)
        action = break_cycle(
            ring_design_fixture, paper_ring_cycle(), table.best_position, BACKWARD
        )
        assert action.added_vc_count == table.best_cost


class TestSharingAndValidity:
    def test_flows_share_duplicated_channels(self, ring_design_fixture):
        action = break_cycle(ring_design_fixture, paper_ring_cycle(), 0, FORWARD)
        # F1 and F4 both create D1; they must share the single new VC.
        f1 = ring_design_fixture.routes.route("F1")
        f4 = ring_design_fixture.routes.route("F4")
        assert f1.channels[0] == f4.channels[0]
        assert f1.channels[0].vc == 1
        assert action.added_vc_count == 1

    def test_broken_design_remains_valid(self, ring_design_fixture):
        from repro.model.validation import validate_design

        break_cycle(ring_design_fixture, paper_ring_cycle(), 0, FORWARD)
        validate_design(ring_design_fixture)

    def test_unaffected_flows_keep_their_routes(self, ring_design_fixture):
        before = ring_design_fixture.routes.route("F2")
        break_cycle(ring_design_fixture, paper_ring_cycle(), 0, FORWARD)
        assert ring_design_fixture.routes.route("F2") == before


class TestErrors:
    def test_bad_position_rejected(self, ring_design_fixture):
        with pytest.raises(RemovalError):
            break_cycle(ring_design_fixture, paper_ring_cycle(), 9, FORWARD)

    def test_bad_direction_rejected(self, ring_design_fixture):
        with pytest.raises(RemovalError):
            break_cycle(ring_design_fixture, paper_ring_cycle(), 0, "sideways")

    def test_edge_without_flows_rejected(self, ring_design_fixture):
        fake_cycle = [paper_channel("L1"), paper_channel("L3")]
        with pytest.raises(RemovalError):
            break_cycle(ring_design_fixture, fake_cycle, 0, FORWARD)
