"""Tests for the pluggable recovery-policy registry (repro.simulation.recovery).

Two layers: unit tests drive a :class:`RecoveryController` directly
(with a stub network) to pin each policy's route-set semantics — idle's
park/reinstate cycle, protection's candidate swap — and engine-equivalence
tests run every policy through ``simulate_design(..., cross_check=True)``
on a fat-tree ``k=2`` design under a fail/restore schedule and on the
deadlock-removed D36_8 design under a ``spatial_burst`` fault, so compiled
and legacy engines are proven field-identical per policy.
"""

from __future__ import annotations

import pytest

from repro.api.registry import recovery_policies
from repro.benchmarks.registry import get_benchmark
from repro.benchmarks.synthetic import default_mesh_traffic
from repro.core.cdg import build_cdg
from repro.core.cycles import count_cycles
from repro.core.removal import remove_deadlocks
from repro.errors import SimulationError
from repro.simulation.events import EventSchedule
from repro.simulation.fault_models import spatial_burst_model
from repro.simulation.recovery import (
    BACKUP_SUFFIX,
    RecoveryController,
    _disjoint_path,
)
from repro.simulation.simulator import SimulationConfig, simulate_design
from repro.simulation.stats import SimulationStats
from repro.synthesis.families import family_design

POLICIES = ["idle", "protection", "removal", "reroute"]


class _StubNetwork:
    """The slice of the network interface the controller touches."""

    def drop_flows(self, names):
        return (0, 0)

    def sync_with_design(self):
        pass

    def live_packet_ids(self):
        return set()

    def is_packet_live(self, pid):
        return False


def _protected_mesh():
    design = family_design(
        "mesh", default_mesh_traffic(3, 3), {"rows": 3, "cols": 3}, name="mesh3x3"
    )
    return remove_deadlocks(design).design


def _severable(design):
    """A (flow name, link) pair where the link carries the flow's route."""
    routes = design.routes
    for name in routes.flow_names:
        links = routes.route(name).links
        if links:
            return name, links[0]
    raise AssertionError("mesh design has no routed inter-switch flow")


class TestRegistry:
    def test_canonical_names(self):
        assert recovery_policies.names() == POLICIES


class TestIdlePolicy:
    def test_parks_severed_route_and_reinstates_on_restore(self):
        design = _protected_mesh()
        name, link = _severable(design)
        original = design.routes.route(name)
        schedule = (
            EventSchedule()
            .fail_link(10, link.src, link.dst, link.index)
            .restore_link(50, link.src, link.dst, link.index)
        )
        controller = RecoveryController(design, schedule, mode="idle")
        stats = SimulationStats(design_name=design.name)
        network = _StubNetwork()

        controller.on_cycle(10, network, stats)
        assert not controller.design.routes.has_route(name)
        assert controller.policy._parked[name] == original
        # Quiesced, never re-routed: the live CDG shrank, so still acyclic.
        assert count_cycles(build_cdg(controller.design), limit=1) == 0

        controller.on_cycle(50, network, stats)
        assert controller.design.routes.route(name) == original
        assert name not in controller.policy._parked

    def test_route_stays_parked_while_any_link_is_down(self):
        design = _protected_mesh()
        name, link = _severable(design)
        other = next(
            l for l in design.topology.links if l != link
        )
        schedule = (
            EventSchedule()
            .fail_link(10, link.src, link.dst, link.index)
            .fail_link(10, other.src, other.dst, other.index)
            .restore_link(40, other.src, other.dst, other.index)
        )
        controller = RecoveryController(design, schedule, mode="idle")
        stats = SimulationStats(design_name=design.name)
        controller.on_cycle(10, _StubNetwork(), stats)
        controller.on_cycle(40, _StubNetwork(), stats)
        # The restore batch did not bring `link` back, so `name` stays parked.
        assert name in controller.policy._parked


class TestProtectionPolicy:
    def test_prepare_provisions_disjoint_candidates(self):
        design = _protected_mesh()
        controller = RecoveryController(
            design, EventSchedule().fail_link(10, "sw0", "sw1"), mode="protection"
        )
        candidates = controller.policy._candidates
        assert set(candidates) == set(design.routes.flow_names)
        protected = 0
        for name, routes in candidates.items():
            assert 1 <= len(routes) <= 2
            if len(routes) == 2:
                protected += 1
                primary, backup = routes
                assert not (set(primary.links) & set(backup.links))
        assert protected, "a 3x3 mesh offers disjoint paths for some flows"

    def test_ported_design_keeps_traffic_and_stays_acyclic(self):
        design = _protected_mesh()
        controller = RecoveryController(
            design, EventSchedule().fail_link(10, "sw0", "sw1"), mode="protection"
        )
        ported = controller.design
        assert ported.traffic is design.traffic
        assert sorted(ported.routes.flow_names) == sorted(design.routes.flow_names)
        assert not any(
            name.endswith(BACKUP_SUFFIX) for name in ported.routes.flow_names
        )
        assert count_cycles(build_cdg(ported), limit=1) == 0

    def test_failure_swaps_backup_in_without_rerouting(self):
        design = _protected_mesh()
        controller = RecoveryController(design, EventSchedule(), mode="protection")
        # Pick a protected flow and fail its primary's first link.
        name = next(
            n for n, c in sorted(controller.policy._candidates.items()) if len(c) == 2
        )
        primary, backup = controller.policy._candidates[name]
        link = primary.links[0]
        schedule = EventSchedule().fail_link(10, link.src, link.dst, link.index)
        controller = RecoveryController(design, schedule, mode="protection")
        primary, backup = controller.policy._candidates[name]
        stats = SimulationStats(design_name=design.name)
        controller.on_cycle(10, _StubNetwork(), stats)
        routes = controller.design.routes
        if all(controller.design.topology.has_link(l) for l in backup.links):
            assert routes.route(name) == backup
        else:
            assert not routes.has_route(name)
        # Any primary/backup mixture is a subset of the jointly removed
        # route set, so the degraded CDG must still be acyclic.
        assert count_cycles(build_cdg(controller.design), limit=1) == 0
        assert stats.post_fault_deadlock_free is True

    def test_backup_namespace_collision_rejected(self):
        design = _protected_mesh()
        victim = design.routes.flow_names[0]
        flow = design.traffic.flow(victim)
        design.traffic.add_flow(
            victim + BACKUP_SUFFIX, flow.src, flow.dst, bandwidth=flow.bandwidth
        )
        with pytest.raises(SimulationError, match="backup namespace"):
            RecoveryController(
                design, EventSchedule().fail_link(10, "sw0", "sw1"), mode="protection"
            )

    def test_disjoint_path_avoids_the_avoid_set(self):
        design = _protected_mesh()
        name, _ = _severable(design)
        primary = design.routes.route(name)
        flow = design.traffic.flow(name)
        path = _disjoint_path(
            design.topology,
            design.switch_of(flow.src),
            design.switch_of(flow.dst),
            set(primary.links),
        )
        if path is not None:
            assert not (set(path) & set(primary.links))


class TestEngineEquivalencePerPolicy:
    @pytest.fixture(scope="class")
    def fat_tree(self):
        traffic = get_benchmark("D26_media", seed=0)
        return remove_deadlocks(family_design("fat_tree", traffic, {"k": 2})).design

    @pytest.mark.parametrize("policy", POLICIES)
    def test_cross_check_on_fat_tree(self, fat_tree, policy):
        schedule = EventSchedule.random(
            fat_tree.topology,
            seed=3,
            link_failures=2,
            start_cycle=40,
            end_cycle=200,
            restore_after=100,
        )
        config = SimulationConfig(
            injection_scale=1.0,
            seed=0,
            fault_schedule=schedule,
            fault_recovery=policy,
        )
        stats = simulate_design(fat_tree, max_cycles=400, config=config, cross_check=True)
        assert stats.fault_events_applied > 0
        assert stats.post_fault_deadlock_free is not None

    @pytest.mark.parametrize("policy", POLICIES)
    def test_cross_check_under_spatial_burst(self, d36_8_design_14sw, policy):
        # The regime of the availability studies: a radius-1 burst with
        # restore on the deadlock-removed D36_8 design at 14 switches.
        design = remove_deadlocks(d36_8_design_14sw).design
        schedule = spatial_burst_model(
            design, seed=0, radius=1, start_cycle=50, end_cycle=150, restore_after=100
        )
        config = SimulationConfig(seed=0, fault_schedule=schedule, fault_recovery=policy)
        stats = simulate_design(design, max_cycles=300, config=config, cross_check=True)
        assert stats.fault_events_applied > 0
        assert stats.post_fault_deadlock_free is not None

    @pytest.mark.parametrize("policy", ["idle", "protection"])
    def test_never_rerouting_policies_stay_deadlock_free(self, fat_tree, policy):
        schedule = EventSchedule.random(
            fat_tree.topology, seed=5, link_failures=3, start_cycle=30, end_cycle=150
        )
        config = SimulationConfig(
            injection_scale=1.0,
            seed=0,
            fault_schedule=schedule,
            fault_recovery=policy,
        )
        stats = simulate_design(fat_tree, max_cycles=400, config=config, cross_check=True)
        assert stats.post_fault_deadlock_free is True
