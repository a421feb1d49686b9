"""Tests for the top-level simulator (repro.simulation.simulator)."""

import pytest

from repro.core.removal import remove_deadlocks
from repro.errors import DeadlockDetected, SimulationError
from repro.perf.sim_engine import CompiledSimulator
from repro.routing.ordering import apply_resource_ordering
from repro.simulation.simulator import SimulationConfig, Simulator, simulate_design


class TestBasicRuns:
    def test_line_design_delivers_traffic(self, simple_line_design):
        stats = simulate_design(
            simple_line_design,
            max_cycles=2000,
            config=SimulationConfig(injection_scale=5.0, seed=0),
        )
        assert stats.packets_injected > 0
        assert stats.packets_delivered > 0
        assert not stats.deadlock_detected
        assert stats.average_latency > 0

    def test_mesh_design_delivers_traffic(self, small_mesh_design):
        stats = simulate_design(
            small_mesh_design,
            max_cycles=2000,
            config=SimulationConfig(injection_scale=2.0, seed=0),
        )
        assert stats.packets_delivered > 0
        assert not stats.deadlock_detected

    def test_drain_phase_empties_network(self, simple_line_design):
        simulator = Simulator(
            simple_line_design, SimulationConfig(injection_scale=5.0, seed=0)
        )
        stats = simulator.run(max_cycles=500)
        assert simulator.network.flits_in_network() == 0
        assert stats.packets_in_flight == 0

    def test_drain_exits_early_once_everything_delivered(self, simple_line_design):
        """The drain phase must stop as soon as all in-flight packets are
        delivered instead of spinning the full drain_cycles budget."""
        simulator = Simulator(
            simple_line_design, SimulationConfig(injection_scale=5.0, seed=0)
        )
        stats = simulator.run(max_cycles=200, drain_cycles=100_000)
        assert simulator.network.undelivered_flits == 0
        # A line design drains within a few route lengths, nowhere near the
        # huge budget: early exit means only a handful of drain cycles ran.
        assert stats.cycles_run < 200 + 1000

    def test_undelivered_counter_matches_scans(self, simple_line_design):
        """The O(1) counter equals the per-router scans at every boundary."""
        simulator = Simulator(
            simple_line_design, SimulationConfig(injection_scale=5.0, seed=0)
        )
        network = simulator.network
        assert network.undelivered_flits == 0
        simulator.run(max_cycles=50, drain=False)
        assert network.undelivered_flits == (
            network.flits_in_network() + network.flits_pending_injection()
        )

    def test_no_drain_option(self, simple_line_design):
        simulator = Simulator(
            simple_line_design, SimulationConfig(injection_scale=5.0, seed=0)
        )
        stats = simulator.run(max_cycles=100, drain=False)
        assert stats.cycles_run == 100

    def test_local_flows_delivered_through_ni(self, simple_line_design):
        design = simple_line_design.copy()
        design.core_map["c2"] = "A"
        design.routes.remove_route("f0")
        design.routes.remove_route("f1")
        stats = simulate_design(
            design, max_cycles=500, config=SimulationConfig(injection_scale=5.0)
        )
        assert stats.local_deliveries > 0
        assert stats.packets_delivered == stats.packets_injected

    def test_reproducible_for_same_seed(self, simple_line_design):
        config = SimulationConfig(injection_scale=5.0, seed=9)
        a = simulate_design(simple_line_design, max_cycles=800, config=config)
        b = simulate_design(simple_line_design, max_cycles=800, config=config)
        assert a.packets_injected == b.packets_injected
        assert a.latencies == b.latencies


class TestDeadlockBehaviour:
    def test_deadlock_reported_in_stats(self, ring_design_fixture):
        stats = simulate_design(
            ring_design_fixture,
            max_cycles=5000,
            config=SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1),
        )
        assert stats.deadlock_detected
        assert stats.deadlock_cycle <= stats.cycles_run

    def test_raise_on_deadlock(self, ring_design_fixture, monkeypatch):
        """The exception carries the verdict the statistics record.

        With ``cross_check`` it is raised only after the legacy comparison,
        so a diverging engine is reported as diverging, deadlock or not.
        """
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
        stats = simulate_design(ring_design_fixture, max_cycles=5000, config=config)
        assert stats.deadlocked_channels
        for cross_check in (False, True):
            with pytest.raises(DeadlockDetected) as raised:
                simulate_design(
                    ring_design_fixture,
                    max_cycles=5000,
                    config=config,
                    raise_on_deadlock=True,
                    cross_check=cross_check,
                )
            assert raised.value.cycle == stats.deadlock_cycle
            assert raised.value.blocked_channels == stats.deadlocked_channels

        original = CompiledSimulator.run

        def rigged(self, max_cycles=10_000, **kwargs):
            rigged_stats = original(self, max_cycles, **kwargs)
            rigged_stats.flits_delivered += 1
            return rigged_stats

        monkeypatch.setattr(CompiledSimulator, "run", rigged)
        with pytest.raises(SimulationError, match="diverged"):
            simulate_design(
                ring_design_fixture,
                max_cycles=5000,
                config=config,
                raise_on_deadlock=True,
                cross_check=True,
            )

    def test_removal_prevents_deadlock(self, ring_design_fixture):
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
        fixed = remove_deadlocks(ring_design_fixture).design
        stats = simulate_design(fixed, max_cycles=5000, config=config)
        assert not stats.deadlock_detected

    def test_resource_ordering_prevents_deadlock(self, ring_design_fixture):
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
        ordered = apply_resource_ordering(ring_design_fixture).design
        stats = simulate_design(ordered, max_cycles=5000, config=config)
        assert not stats.deadlock_detected

    def test_deadlock_freedom_does_not_depend_on_seed(self, ring_design_fixture):
        fixed = remove_deadlocks(ring_design_fixture).design
        for seed in range(3):
            config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=seed)
            assert not simulate_design(fixed, max_cycles=3000, config=config).deadlock_detected


class TestValidation:
    def test_invalid_design_rejected(self, simple_line_design):
        del simple_line_design.core_map["c0"]
        with pytest.raises(Exception):
            Simulator(simple_line_design)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("buffer_depth", 0),
            ("injection_scale", 0.0),
            ("injection_scale", -1.0),
            ("watchdog_cycles", 0),
            ("injection_scale", float("nan")),
            ("injection_scale", float("inf")),
        ],
    )
    def test_config_a_wormhole_network_cannot_run_rejected(self, field, value):
        with pytest.raises(SimulationError, match=field):
            SimulationConfig(**{field: value})
