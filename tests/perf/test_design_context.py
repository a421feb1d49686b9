"""Per-design state: a removal run's CDG index and the memos on a design.

A removal run builds its own :class:`~repro.perf.cdg_index.CDGIndex` from
the design's routes and keeps it exact through every break; nothing of it
stays on the design.  Simulation memoises its compiled template, the
witness CDG and the ``protection`` provisioning on the design instance,
and ``copy()`` and pickling drop all three.  Routing after a topology
edit — a duplicated channel or an added link — must see the design as it
is now.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.breaker import flows_creating_dependency
from repro.core.cdg import build_cdg
from repro.core.removal import remove_deadlocks
from repro.perf.cdg_index import CDGIndex
from repro.routing.shortest_path import compute_routes, reroute_unrouted
from repro.simulation.events import EventSchedule
from repro.simulation.simulator import SimulationConfig, simulate_design
from repro.synthesis.builder import SynthesisConfig, synthesize_design
from repro.benchmarks.registry import get_benchmark

#: The attributes simulation memoises on a design instance.
MEMOS = ("_sim_template", "_witness_cdg", "_protection")


@pytest.fixture
def design():
    traffic = get_benchmark("D26_media", seed=0)
    return synthesize_design(traffic, SynthesisConfig(n_switches=8))


@pytest.fixture
def memoised(ring_design_fixture):
    """The paper's ring after a deadlocking run and a protection run."""
    design = ring_design_fixture
    config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
    assert simulate_design(design, max_cycles=4000, config=config).deadlock_detected
    link = design.topology.links[0]
    protection = SimulationConfig(
        injection_scale=1.0,
        seed=0,
        fault_schedule=EventSchedule().fail_link(50, link.src, link.dst),
        fault_recovery="protection",
    )
    simulate_design(design, max_cycles=200, config=protection)
    assert all(hasattr(design, name) for name in MEMOS)
    return design


def _field_names(design):
    return {field.name for field in dataclasses.fields(design)}


class TestInvalidation:
    def test_out_of_band_link_addition_triggers_rebuild(self, design):
        """Re-routing after a topology edit routes over the edited topology."""
        switches = design.topology.switches
        new_link = design.topology.add_link(switches[0], switches[-1], index=7)
        for name in design.routes.flow_names:
            design.routes.remove_route(name)
        fresh = design.copy()
        compute_routes(fresh)
        assert any(new_link in fresh.routes.route(name).links for name in fresh.routes)
        reroute_unrouted(design)
        assert design.routes == fresh.routes

    def test_mid_run_duplication_routes_match_fresh_context(self, design):
        """Duplicate channels and add a parallel link, then route: the
        results must match routing a fresh copy of the edited design."""
        topology = design.topology
        for link in topology.links[:3]:
            topology.add_virtual_channel(link)
        topology.add_parallel_link(topology.links[1])
        compute_routes(design)
        fresh = design.copy()
        compute_routes(fresh)
        assert design.routes == fresh.routes


class TestRouteIndex:
    def test_route_ids_follow_route_changes(self, design):
        index = CDGIndex.from_routes(design.routes)
        flow_name = design.routes.flow_names[0]
        old_route = design.routes.route(flow_name)
        assert [index.channel_of(i) for i in index.route_ids(flow_name)] == list(
            old_route.channels
        )
        duplicate = design.topology.add_virtual_channel(old_route[0].link)
        new_route = old_route.replace_at_positions({0: duplicate})
        design.routes.set_route(flow_name, new_route)
        index.apply_route_change(flow_name, old_route.channels, new_route.channels)
        assert [index.channel_of(i) for i in index.route_ids(flow_name)] == list(
            new_route.channels
        )

    def test_repeated_in_place_removal_with_reroute_between(self):
        """In-place removal, an out-of-band re-route, in-place removal
        again: the second run must analyse the re-routed design."""
        traffic = get_benchmark("D36_8", seed=0)
        design = synthesize_design(traffic, SynthesisConfig(n_switches=14))
        remove_deadlocks(design, engine="context", in_place=True)
        compute_routes(design)
        # The reference runs on a copy of the same mutated state.
        reference = remove_deadlocks(design.copy(), engine="rebuild", in_place=True)
        result = remove_deadlocks(design, engine="context", in_place=True, cross_check=True)
        assert result.is_deadlock_free
        assert result.actions == reference.actions
        assert result.design.routes == reference.design.routes

    def test_flows_creating_matches_reference_scan(self, design):
        index = CDGIndex.from_routes(design.routes)
        cdg = build_cdg(design)
        for edge in sorted(cdg.edges)[:10]:
            assert index.flows_creating(edge) == flows_creating_dependency(design, edge)

    def test_in_place_removal_leaves_only_the_fields(self, d36_8_design_14sw):
        """A removal run keeps its CDG index to itself."""
        design = d36_8_design_14sw.copy()
        result = remove_deadlocks(design, in_place=True)
        assert result.actions
        assert set(vars(design)) == _field_names(design)

    def test_pickling_drops_attached_context(self, memoised):
        """The memos are per-process caches: they must not ride along when
        a design crosses a process boundary (sweep workers return designs)."""
        clone = pickle.loads(pickle.dumps(memoised))
        assert set(vars(clone)) == _field_names(clone)
        assert clone == memoised


class TestSimulationMemos:
    def test_copy_drops_the_memos(self, memoised):
        clone = memoised.copy()
        assert set(vars(clone)) == _field_names(clone)
