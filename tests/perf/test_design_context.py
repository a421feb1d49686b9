"""DesignContext: attachment, route-delta maintenance and invalidation.

The context must never serve stale state: routes rewritten out of band
must not leave a stale CDG index behind, and routing after a topology
edit — a duplicated channel or an added link — must see the design as it
is now.  The routing tests assert that by comparing the context's router
and ``compute_routes`` with a freshly built switch graph or design copy.
"""

from __future__ import annotations

import pytest

from repro.model.channels import Channel, Link
from repro.model.topology import Topology
from repro.perf.design_context import DesignContext
from repro.perf.route_engine import SwitchGraph
from repro.routing.shortest_path import compute_routes
from repro.routing.turns import compute_updown_routes, updown_orientation, updown_route
from repro.synthesis.builder import SynthesisConfig, synthesize_design
from repro.benchmarks.registry import get_benchmark


@pytest.fixture
def design():
    traffic = get_benchmark("D26_media", seed=0)
    return synthesize_design(traffic, SynthesisConfig(n_switches=8))


def _all_pair_routes(graph: SwitchGraph):
    """Every reachable pair's route via a graph (deterministic probe)."""
    routes = {}
    for src in graph.switches:
        for dst in graph.switches:
            if src == dst:
                continue
            path = graph.shortest_path(graph.id_of[src], graph.id_of[dst])
            routes[(src, dst)] = path if path is None else [graph.links[i] for i in path]
    return routes


class TestAttachment:
    def test_context_attached_to_design_instance(self, design):
        assert DesignContext.of(design) is DesignContext.of(design)
        assert DesignContext.of(design.copy()) is not DesignContext.of(design)


class TestRouterFactory:
    """``context.router()`` — the sanctioned construction point outside perf/."""

    def test_router_matches_direct_construction(self, design):
        from repro.perf.route_engine import IndexedRouter

        context = DesignContext.of(design)
        factory_router = context.router(congestion_factor=0.5, total_bandwidth=2.0)
        direct_router = IndexedRouter(
            design.topology,
            congestion_factor=0.5,
            total_bandwidth=2.0,
        )
        switches = sorted(design.topology.switches)
        for src in switches[:4]:
            for dst in switches[-4:]:
                if src == dst:
                    continue
                assert factory_router.route(src, dst) == direct_router.route(src, dst)

    def test_each_call_starts_with_zeroed_congestion(self, design):
        context = DesignContext.of(design)
        first = context.router(congestion_factor=1.0, total_bandwidth=1.0)
        switches = sorted(design.topology.switches)
        route = first.route(switches[0], switches[-1])
        first.commit(route, 5.0)
        assert any(first.routed_bandwidth)
        fresh = context.router(congestion_factor=1.0, total_bandwidth=1.0)
        assert not any(fresh.routed_bandwidth)


class TestInvalidation:
    def test_out_of_band_link_addition_triggers_rebuild(self, design):
        """Topology edits made behind the context's back are routed over."""
        context = DesignContext.of(design)
        switches = design.topology.switches
        new_link = design.topology.add_link(switches[0], switches[-1], index=7)
        graph = context.router().graph
        assert new_link in graph.link_id
        assert _all_pair_routes(graph) == _all_pair_routes(SwitchGraph(design.topology))

    def test_mid_run_duplication_routes_match_fresh_context(self, design):
        """Duplicate channels mid-run, then route: the results must match a
        context built from scratch on the same design."""
        context = DesignContext.of(design)
        context.cdg_index()
        topology = design.topology
        for link in topology.links[:3]:
            context.notify_channel_added(topology.add_virtual_channel(link))
        topology.add_parallel_link(topology.links[1])
        compute_routes(design)
        via_context = {name: design.routes.route(name) for name in design.routes}
        fresh = design.copy()
        compute_routes(fresh)
        via_fresh = {name: fresh.routes.route(name) for name in fresh.routes}
        assert via_context == via_fresh


class TestUpdownState:
    def test_orientation_matches_reference(self, design):
        """Routes follow the reference orientation and never turn down -> up."""
        reference = updown_orientation(design.topology)
        routes = compute_updown_routes(design)
        assert routes.flow_names
        for name in routes.flow_names:
            route = routes.route(name)
            flow = design.traffic.flow(name)
            assert route == updown_route(
                design.topology, design.switch_of(flow.src), design.switch_of(flow.dst)
            )
            directions = [reference[link] for link in route.links]
            assert directions == sorted(directions, key=lambda d: d == "down")


class TestRouteIndex:
    def test_route_ids_follow_route_changes(self, design):
        context = DesignContext.of(design)
        cdg = context.cdg_index()
        flow_name = design.routes.flow_names[0]
        old_route = design.routes.route(flow_name)
        assert [cdg.channel_of(i) for i in context.route_ids(flow_name)] == list(
            old_route.channels
        )
        duplicate = design.topology.add_virtual_channel(old_route[0].link)
        new_route = old_route.replace_at_positions({0: duplicate})
        design.routes.set_route(flow_name, new_route)
        context.apply_route_change(flow_name, old_route, new_route)
        assert [cdg.channel_of(i) for i in context.route_ids(flow_name)] == list(
            new_route.channels
        )

    def test_out_of_band_route_change_rebuilds_cdg(self, design):
        """Routes rewritten without apply_route_change must not leave a
        stale CDG behind (version-stamp staleness guard)."""
        context = DesignContext.of(design)
        stale = context.cdg_index()
        compute_routes(design, weight_mode="hops")  # out-of-band rewrite
        fresh = context.cdg_index()
        assert fresh is not stale
        from repro.core.cdg import build_cdg

        fresh.verify_against(build_cdg(design))

    def test_repeated_in_place_removal_with_reroute_between(self):
        """The reviewer scenario: in-place removal, out-of-band re-route,
        in-place removal again — the attached context must not serve the
        first run's CDG to the second."""
        from repro.core.removal import remove_deadlocks

        traffic = get_benchmark("D36_8", seed=0)
        design = synthesize_design(traffic, SynthesisConfig(n_switches=14))
        remove_deadlocks(design, engine="context", in_place=True)
        compute_routes(design)  # bypasses the context's apply_route_change
        # The reference runs on a copy of the *same* mutated state; the
        # context run must match it despite the stale attached context.
        reference = remove_deadlocks(design.copy(), engine="rebuild", in_place=True)
        result = remove_deadlocks(design, engine="context", in_place=True, cross_check=True)
        assert result.is_deadlock_free
        assert result.actions == reference.actions
        assert result.design.routes == reference.design.routes

    def test_pickling_drops_attached_context(self, design):
        """Contexts are per-process caches: they must not ride along when a
        design crosses a process boundary (sweep workers return designs)."""
        import pickle

        context = DesignContext.of(design)
        context.cdg_index()
        clone = pickle.loads(pickle.dumps(design))
        assert not hasattr(clone, "_design_context")
        assert clone == design
        assert DesignContext.of(clone) is not context

    def test_removal_on_copy_leaves_source_context_intact(self, ring_design_fixture):
        from repro.core.cdg import build_cdg
        from repro.core.removal import remove_deadlocks

        source_context = DesignContext.of(ring_design_fixture)
        source_context.cdg_index()
        result = remove_deadlocks(ring_design_fixture, engine="context")
        assert result.is_deadlock_free
        # The source design's context still describes the *unmodified* routes.
        source_context.cdg_index().verify_against(build_cdg(ring_design_fixture))

    def test_flows_creating_matches_reference_scan(self, design):
        from repro.core.breaker import flows_creating_dependency
        from repro.core.cdg import build_cdg

        context = DesignContext.of(design)
        cdg = build_cdg(design)
        for edge in sorted(cdg.edges)[:10]:
            assert context.flows_creating(edge) == flows_creating_dependency(
                design, edge
            )
