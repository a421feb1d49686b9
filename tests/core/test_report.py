"""Tests for removal result records (repro.core.report)."""

from repro.core.removal import remove_deadlocks
from repro.core.report import BreakAction, RemovalResult
from repro.examples_data.paper_ring import paper_channel


class TestBreakAction:
    def test_describe_contains_edge_and_cost(self, ring_design_fixture):
        result = remove_deadlocks(ring_design_fixture)
        action = result.actions[0]
        text = action.describe()
        assert "cost" in text
        assert "->" in text
        assert "VC" in text

    def test_added_vc_count_matches_channels_added(self, ring_design_fixture):
        action = remove_deadlocks(ring_design_fixture).actions[0]
        assert action.added_vc_count == len(action.channels_added)

    def test_cost_table_is_attached(self, ring_design_fixture):
        action = remove_deadlocks(ring_design_fixture).actions[0]
        assert action.cost_table is not None
        assert action.cost_table.best_cost == action.cost


class TestRemovalResult:
    def test_added_vc_count_sums_actions(self, small_ring_design):
        result = remove_deadlocks(small_ring_design)
        assert result.added_vc_count == sum(a.added_vc_count for a in result.actions)

    def test_is_deadlock_free_flag(self, ring_design_fixture):
        assert remove_deadlocks(ring_design_fixture).is_deadlock_free

    def test_empty_result_summary(self, simple_line_design):
        result = remove_deadlocks(simple_line_design)
        assert "already deadlock free" in result.summary()

    def test_summary_prints_an_exact_count(self, ring_design_fixture):
        summary = remove_deadlocks(ring_design_fixture).summary()
        assert (
            "initial cyclic SCCs     : 1 (largest 4 channels, 4 channels on cycles)\n"
            in summary
        )

    def test_summary_prints_no_elementary_cycle_count(self, ring_design_fixture):
        # Removal counts no elementary cycles, so its summary claims none.
        summary = remove_deadlocks(ring_design_fixture).summary()
        assert "CDG cycles" not in summary

    def test_manual_construction(self, simple_line_design):
        result = RemovalResult(design=simple_line_design)
        assert result.added_vc_count == 0
        assert result.rerouted_flows == []
        assert result.iterations == 0
