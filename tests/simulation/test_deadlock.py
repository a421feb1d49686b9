"""Tests for runtime deadlock detection (repro.simulation.deadlock)."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import simulation_engines
from repro.core.cdg import build_cdg
from repro.core.cycles import verify_cycle
from repro.core.removal import remove_deadlocks
from repro.errors import SimulationError
from repro.perf.batch_engine import run_batch
from repro.simulation import deadlock
from repro.simulation.deadlock import DeadlockMonitor, find_wait_cycle
from repro.simulation.network import WormholeNetwork
from repro.simulation.flit import Packet
from repro.simulation.simulator import SimulationConfig, simulate_design
from repro.simulation.stats import SimulationStats


def saturate_ring(design, size=8, buffer_depth=1):
    """Inject one long packet per flow into a fresh network of ``design``."""
    network = WormholeNetwork(design, buffer_depth=buffer_depth)
    stats = SimulationStats(design.name)
    for i, flow in enumerate(design.traffic.flows):
        route = design.routes.route(flow.name)
        network.inject(Packet(i, flow.name, route.channels, size, created_cycle=0))
    return network, stats


class TestWaitCycle:
    def test_saturated_paper_ring_reaches_cyclic_wait(self, ring_design_fixture):
        network, stats = saturate_ring(ring_design_fixture)
        for cycle in range(200):
            network.step(cycle, stats)
        cycle_channels = find_wait_cycle(network)
        assert cycle_channels is not None
        assert len(cycle_channels) >= 2

    def test_empty_network_has_no_wait_cycle(self, ring_design_fixture):
        network = WormholeNetwork(ring_design_fixture)
        assert find_wait_cycle(network) is None

    def test_line_network_never_waits_cyclically(self, simple_line_design):
        network, stats = saturate_ring(simple_line_design, size=6)
        for cycle in range(50):
            network.step(cycle, stats)
        assert find_wait_cycle(network) is None


class _WaitForEdges:
    """Stands in for a network: only its wait-for edges matter here."""

    def __init__(self, edges):
        self._edges = edges

    def wait_for_edges(self):
        return self._edges


def networkx_wait_cycle(edges):
    """The channels ``nx.find_cycle`` reports on the same wait-for graph."""
    occupied = {src for src, _ in edges}
    graph = nx.DiGraph((src, dst) for src, dst in edges if dst in occupied)
    try:
        return [edge[0] for edge in nx.find_cycle(graph, orientation="original")]
    except nx.NetworkXNoCycle:
        return None


class TestWaitCycleOracle:
    @given(
        edges=st.lists(
            st.tuples(st.integers(0, 9), st.integers(0, 9)), max_size=25
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_networkx_find_cycle(self, edges):
        assert find_wait_cycle(_WaitForEdges(edges)) == networkx_wait_cycle(edges)


class TestMonitor:
    def test_monitor_fires_only_after_watchdog_window(self, ring_design_fixture):
        network, stats = saturate_ring(ring_design_fixture)
        monitor = DeadlockMonitor(watchdog_cycles=10)
        verdict = None
        fired_at = None
        for cycle in range(300):
            transfers = network.step(cycle, stats)
            verdict = monitor.record_cycle(network, transfers)
            if verdict is not None:
                fired_at = cycle
                break
        assert verdict is not None
        assert fired_at >= 10

    def test_monitor_resets_on_progress(self, simple_line_design):
        network, stats = saturate_ring(simple_line_design, size=4)
        monitor = DeadlockMonitor(watchdog_cycles=5)
        for cycle in range(60):
            transfers = network.step(cycle, stats)
            assert monitor.record_cycle(network, transfers) is None

    def test_idle_empty_network_never_flags(self, simple_line_design):
        network = WormholeNetwork(simple_line_design)
        stats = SimulationStats("idle")
        monitor = DeadlockMonitor(watchdog_cycles=3)
        for cycle in range(20):
            transfers = network.step(cycle, stats)
            assert monitor.record_cycle(network, transfers) is None
        assert monitor.idle_cycles == 0


class TestEndToEnd:
    def test_cyclic_design_deadlocks_under_pressure(self, ring_design_fixture):
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
        stats = simulate_design(ring_design_fixture, max_cycles=5000, config=config)
        assert stats.deadlock_detected
        assert stats.deadlocked_channels

    def test_removed_design_does_not_deadlock(self, ring_design_fixture):
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
        fixed = remove_deadlocks(ring_design_fixture).design
        stats = simulate_design(fixed, max_cycles=5000, config=config)
        assert not stats.deadlock_detected
        assert stats.packets_delivered > 0


class TestCdgWitness:
    """A reported deadlock is a cycle of the simulated design's CDG.

    Under deterministic routing a wormhole deadlock is a cycle of channel
    dependencies (Dally & Seitz), so the channel list every engine reports
    must close a cycle in the CDG the paper's algorithm analyses.  Every
    engine checks this itself before it reports a verdict.
    """

    @pytest.mark.parametrize(
        "engine, max_cycles",
        [
            ("legacy", 4000),
            ("compiled", 4000),
            # The ring deadlocks at cycle 512: inside the injection phase,
            # or inside the drain.
            ("batched", 4000),
            ("batched", 400),
        ],
    )
    def test_planted_wrong_channels_raise(self, ring_design_fixture, engine, max_cycles, monkeypatch):
        """A verdict whose wait-for edges run backwards fails the witness."""
        honest = deadlock.find_wait_cycle
        planted = []

        def reversed_cycle(network):
            cycle = honest(network)
            if cycle is not None:
                assert len(cycle) > 2  # a reversed 2-cycle is still a cycle
                planted.append(cycle[::-1])
                return planted[-1]
            return None

        monkeypatch.setattr(deadlock, "find_wait_cycle", reversed_cycle)
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
        simulator = simulation_engines.get(engine)(ring_design_fixture, config)
        with pytest.raises(SimulationError, match="deadlock witness failed"):
            simulator.run(max_cycles)
        assert planted

    def test_cdg_built_once_per_grid(self, d36_8_design_14sw, monkeypatch):
        design = d36_8_design_14sw.copy()  # no memos yet
        builds = []

        def counting_build_cdg(*args, **kwargs):
            builds.append(args)
            return build_cdg(*args, **kwargs)

        monkeypatch.setattr(deadlock, "build_cdg", counting_build_cdg)
        configs = [SimulationConfig(injection_scale=scale, seed=0) for scale in (1.0, 2.0, 4.0)]
        stats_list = run_batch(design, configs, max_cycles=300)
        assert all(stats.deadlock_detected for stats in stats_list)
        assert len(builds) == 1

    @pytest.mark.parametrize("engine", ["compiled", "legacy"])
    def test_paper_ring(self, ring_design_fixture, engine):
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
        stats = simulation_engines.get(engine)(ring_design_fixture, config).run(4000)
        assert stats.deadlock_cycle == 512
        assert verify_cycle(build_cdg(ring_design_fixture), stats.deadlocked_channels)

    @pytest.mark.parametrize("engine", ["compiled", "batched"])
    @pytest.mark.parametrize("scale", [1.0, 2.0, 4.0])
    def test_unprotected_d36_8(self, d36_8_design_14sw, engine, scale):
        config = SimulationConfig(injection_scale=scale, seed=0)
        stats = simulation_engines.get(engine)(d36_8_design_14sw, config).run(300)
        assert stats.deadlock_detected
        assert verify_cycle(build_cdg(d36_8_design_14sw), stats.deadlocked_channels)
