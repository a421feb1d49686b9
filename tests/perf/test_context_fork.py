"""Context forking: ``design.copy()`` seeds the copy's DesignContext.

The removal engine runs on a copy of the input design; before the fork a
run on a copy rebuilt the CDG index from the route set every time.  Now
``copy()`` clones a synchronised index from the source design's context
(when the link sets are equal), and the clone is fully independent — a
removal run mutating the copy must never corrupt the source's state.
"""

from __future__ import annotations

from repro.core.cdg import build_cdg
from repro.core.removal import remove_deadlocks
from repro.perf.cdg_index import CDGIndex
from repro.perf.design_context import DesignContext, counters


class TestCdgIndexClone:
    def test_clone_matches_original(self, ring_design_fixture):
        index = CDGIndex.from_routes(ring_design_fixture.routes)
        clone = index.clone()
        clone.verify_against(build_cdg(ring_design_fixture))

    def test_clone_is_independent(self, ring_design_fixture):
        routes = ring_design_fixture.routes
        index = CDGIndex.from_routes(routes)
        clone = index.clone()
        flow_name, route = routes.items()[0]
        clone.remove_route(flow_name, route.channels)
        # The original still verifies against the unmodified design.
        index.verify_against(build_cdg(ring_design_fixture))
        assert clone.edge_count <= index.edge_count


class TestForkOnCopy:
    def test_copy_forks_a_synchronised_context(self, ring_design_fixture):
        context = DesignContext.of(ring_design_fixture)
        context.cdg_index()
        counters.reset()
        clone = ring_design_fixture.copy()
        assert counters.contexts_forked == 1
        forked = DesignContext.of(clone)
        assert forked.design is clone
        forked.cdg_index().verify_against(build_cdg(clone))

    def test_copy_without_built_index_does_not_fork(self, ring_design_fixture):
        counters.reset()
        ring_design_fixture.copy()
        assert counters.contexts_forked == 0

    def test_copy_with_stale_index_does_not_fork(self, ring_design_fixture):
        context = DesignContext.of(ring_design_fixture)
        context.cdg_index()
        # Out-of-band route mutation: the source index is now stale.
        flow_name, route = ring_design_fixture.routes.items()[0]
        ring_design_fixture.routes.set_route(flow_name, route)
        counters.reset()
        ring_design_fixture.copy()
        assert counters.contexts_forked == 0

    def test_removal_on_copy_leaves_source_context_intact(self, ring_design_fixture):
        source_context = DesignContext.of(ring_design_fixture)
        source_context.cdg_index()
        result = remove_deadlocks(ring_design_fixture, engine="context")
        assert result.is_deadlock_free
        # The source design's context still describes the *unmodified* routes.
        source_context.cdg_index().verify_against(build_cdg(ring_design_fixture))

    def test_repeated_removal_runs_fork_instead_of_rebuilding(self, ring_design_fixture):
        counters.reset()
        first = remove_deadlocks(ring_design_fixture, engine="context")
        second = remove_deadlocks(ring_design_fixture, engine="context")
        assert counters.contexts_forked == 2
        assert first.actions == second.actions
        assert first.design.routes == second.design.routes

    def test_ablation_selections_do_not_fork(self, ring_design_fixture):
        """largest/random run the rebuild loop, which never reads the index."""
        counters.reset()
        for selection in ("largest", "random"):
            result = remove_deadlocks(ring_design_fixture, cycle_selection=selection)
            assert result.is_deadlock_free
        assert counters.contexts_forked == 0

    def test_forked_removal_matches_seed_engine(self, d36_8_design_14sw):
        design = d36_8_design_14sw.copy()
        DesignContext.of(design).cdg_index()
        seed_result = remove_deadlocks(design, engine="rebuild")
        forked_result = remove_deadlocks(design, engine="context", cross_check=True)
        assert forked_result.actions == seed_result.actions
        assert forked_result.design.routes == seed_result.design.routes
