"""Tests for the Algorithm 1 driver (repro.core.removal)."""

import pytest

from repro.benchmarks.registry import get_benchmark
from repro.core.cdg import build_cdg
from repro.core.removal import (
    DeadlockRemover,
    is_deadlock_free,
    remove_deadlocks,
)
from repro.errors import ConvergenceError, RemovalError
from repro.model.validation import validate_design
from repro.routing.ordering import apply_resource_ordering
from repro.synthesis.builder import SynthesisConfig, synthesize_design


class EngineUnderTest:
    """Loop-level tests run on ``context``, and again in a ``rebuild`` subclass."""

    engine = "context"

    def remove(self, design, **options):
        return remove_deadlocks(design, engine=self.engine, **options)


class TestPaperRing(EngineUnderTest):
    def test_removal_yields_acyclic_cdg(self, ring_design_fixture):
        result = self.remove(ring_design_fixture)
        assert build_cdg(result.design).is_acyclic()

    def test_single_vc_is_enough(self, ring_design_fixture):
        result = self.remove(ring_design_fixture)
        assert result.added_vc_count == 1
        assert result.iterations == 1
        assert result.initial_cycle_count == 1

    def test_input_design_untouched_by_default(self, ring_design_fixture):
        self.remove(ring_design_fixture)
        assert ring_design_fixture.extra_vc_count == 0
        assert not build_cdg(ring_design_fixture).is_acyclic()

    def test_in_place_removal_mutates_input(self, ring_design_fixture):
        result = self.remove(ring_design_fixture, in_place=True)
        assert result.design is ring_design_fixture
        assert ring_design_fixture.extra_vc_count == 1

    def test_result_design_is_valid(self, ring_design_fixture):
        result = self.remove(ring_design_fixture)
        validate_design(result.design)

    def test_summary_mentions_vcs(self, ring_design_fixture):
        summary = self.remove(ring_design_fixture).summary()
        assert "virtual channels added" in summary
        assert "iteration 1" in summary

    def test_rerouted_flows_reported(self, ring_design_fixture):
        result = self.remove(ring_design_fixture)
        assert set(result.rerouted_flows) <= {"F1", "F2", "F3", "F4"}
        assert len(result.rerouted_flows) >= 1


class TestPaperRingRebuild(TestPaperRing):
    engine = "rebuild"


class TestAlreadyDeadlockFree:
    def test_line_needs_no_changes(self, simple_line_design):
        result = remove_deadlocks(simple_line_design)
        assert result.initially_deadlock_free
        assert result.added_vc_count == 0
        assert result.iterations == 0

    def test_mesh_needs_no_changes(self, small_mesh_design):
        result = remove_deadlocks(small_mesh_design)
        assert result.added_vc_count == 0

    def test_is_deadlock_free_helper(self, simple_line_design, ring_design_fixture):
        assert is_deadlock_free(simple_line_design)
        assert not is_deadlock_free(ring_design_fixture)


class TestLargerDesigns:
    def test_small_ring_design_removal(self, small_ring_design):
        assert not is_deadlock_free(small_ring_design)
        result = remove_deadlocks(small_ring_design)
        assert build_cdg(result.design).is_acyclic()
        assert result.added_vc_count >= 1
        validate_design(result.design)

    def test_synthesized_d36_8_removal(self, d36_8_design_14sw):
        design = d36_8_design_14sw.copy()
        result = remove_deadlocks(design)
        assert build_cdg(result.design).is_acyclic()
        validate_design(result.design)
        # The headline claim: far fewer VCs than one per route hop.
        assert result.added_vc_count < design.routes.total_hop_count() / 2

    def test_removal_is_deterministic(self, small_ring_design):
        first = remove_deadlocks(small_ring_design)
        second = remove_deadlocks(small_ring_design)
        assert first.added_vc_count == second.added_vc_count
        assert first.design.routes == second.design.routes


class TestOptions(EngineUnderTest):
    def test_unknown_cycle_selection_rejected(self):
        with pytest.raises(RemovalError):
            DeadlockRemover(cycle_selection="weird")

    def test_unknown_direction_policy_rejected(self):
        with pytest.raises(RemovalError):
            DeadlockRemover(direction_policy="weird")

    def test_forward_only_policy(self, ring_design_fixture):
        result = self.remove(ring_design_fixture, direction_policy="forward")
        assert all(action.direction == "forward" for action in result.actions)
        assert build_cdg(result.design).is_acyclic()

    def test_backward_only_policy(self, ring_design_fixture):
        result = self.remove(ring_design_fixture, direction_policy="backward")
        assert all(action.direction == "backward" for action in result.actions)
        assert build_cdg(result.design).is_acyclic()

    def test_largest_cycle_selection(self, small_ring_design):
        result = remove_deadlocks(small_ring_design, cycle_selection="largest")
        assert build_cdg(result.design).is_acyclic()

    def test_random_cycle_selection_with_seed(self, small_ring_design):
        first = remove_deadlocks(small_ring_design, cycle_selection="random", seed=7)
        second = remove_deadlocks(small_ring_design, cycle_selection="random", seed=7)
        assert first.added_vc_count == second.added_vc_count
        assert build_cdg(first.design).is_acyclic()

    def test_iteration_cap_raises_convergence_error(self, small_ring_design):
        with pytest.raises(ConvergenceError):
            self.remove(small_ring_design, max_iterations=0)

    def test_on_iteration_callback(self, ring_design_fixture):
        seen = []
        self.remove(ring_design_fixture, on_iteration=seen.append)
        assert len(seen) == 1
        assert seen[0].iteration == 1

    def test_skip_initial_cycle_count(self, ring_design_fixture):
        result = self.remove(ring_design_fixture, count_initial_cycles=False)
        assert result.initial_cycle_count == 0
        assert result.added_vc_count == 1

    def test_validation_can_be_disabled(self, ring_design_fixture):
        result = remove_deadlocks(ring_design_fixture, validate=False)
        assert result.added_vc_count == 1

    def test_runtime_is_recorded(self, ring_design_fixture):
        result = remove_deadlocks(ring_design_fixture)
        assert result.runtime_seconds > 0


class TestOptionsRebuild(TestOptions):
    engine = "rebuild"


class TestComparisonWithOrdering:
    def test_removal_cheaper_than_ordering_on_ring(self, ring_design_fixture):
        removal = remove_deadlocks(ring_design_fixture)
        ordering = apply_resource_ordering(ring_design_fixture)
        assert removal.added_vc_count < ordering.extra_vcs

    def test_removal_cheaper_than_ordering_on_benchmark(self, d36_8_design_14sw):
        design = d36_8_design_14sw.copy()
        removal = remove_deadlocks(design)
        ordering = apply_resource_ordering(design)
        assert removal.added_vc_count < ordering.extra_vcs


@pytest.fixture(scope="module")
def cyclic_designs():
    """The benchmark points dense enough to have CDG cycles (read-only)."""
    points = [("D36_6", 14), ("D36_8", 14), ("D36_8", 22), ("D35_bott", 14)]
    return [
        synthesize_design(get_benchmark(name), SynthesisConfig(n_switches=switches))
        for name, switches in points
    ]


class TestAblations:
    """The heuristics the paper motivates without quantifying them."""

    def test_smallest_cycle_first_is_competitive(self, cyclic_designs):
        def total(selection):
            results = [remove_deadlocks(d, cycle_selection=selection) for d in cyclic_designs]
            return sum(result.added_vc_count for result in results)

        assert total("smallest") <= 1.5 * total("largest")

    def test_best_direction_beats_a_fixed_one(self, cyclic_designs):
        for design in cyclic_designs:
            vcs = {
                policy: remove_deadlocks(design, direction_policy=policy).added_vc_count
                for policy in ("best", "forward", "backward")
            }
            assert vcs["best"] <= max(vcs["forward"], vcs["backward"])

    def test_removal_beats_even_layered_ordering(self, cyclic_designs):
        for design in cyclic_designs:
            layered = apply_resource_ordering(design, strategy="layered").extra_vcs
            hop_index = apply_resource_ordering(design, strategy="hop_index").extra_vcs
            assert remove_deadlocks(design).added_vc_count <= layered <= hop_index
