"""Tests for traffic generation (repro.simulation.traffic_gen)."""

import pytest

from repro.simulation.network import WormholeNetwork
from repro.simulation.simulator import SimulationConfig, Simulator
from repro.simulation.traffic_gen import FlowTrafficGenerator


class TestRates:
    def test_rates_proportional_to_bandwidth(self, simple_line_design):
        generator = FlowTrafficGenerator(simple_line_design)
        rates = generator.flow_rates
        assert rates["f0"] == pytest.approx(2 * rates["f1"])

    def test_rates_scale_with_injection_scale(self, simple_line_design):
        base = FlowTrafficGenerator(simple_line_design).flow_rates
        double = FlowTrafficGenerator(simple_line_design, injection_scale=2.0).flow_rates
        for name in base:
            assert double[name] == pytest.approx(min(2 * base[name], 1.0))

    def test_rates_capped_at_one_packet_per_cycle(self, simple_line_design):
        generator = FlowTrafficGenerator(simple_line_design, injection_scale=1e6)
        assert all(rate <= 1.0 for rate in generator.flow_rates.values())

    def test_unrouted_flows_are_skipped(self, simple_line_design):
        design = simple_line_design.copy()
        design.routes.remove_route("f1")
        generator = FlowTrafficGenerator(design)
        assert "f1" not in generator.flow_rates


class TestGeneration:
    def test_deterministic_for_seed(self, simple_line_design):
        a = FlowTrafficGenerator(simple_line_design, injection_scale=50.0, seed=3)
        b = FlowTrafficGenerator(simple_line_design, injection_scale=50.0, seed=3)
        for cycle in range(50):
            assert a.fire(cycle) == b.fire(cycle)

    def test_packet_ids_are_unique_and_increasing(self, simple_line_design):
        """The simulator numbers every packet the generator fires, in order."""
        config = SimulationConfig(injection_scale=100.0, seed=1)
        simulator = Simulator(simple_line_design, config)
        ids = []
        enqueue = simulator.network.enqueue

        def recording(key, pid, size, created):
            ids.append(pid)
            enqueue(key, pid, size, created)

        simulator.network.enqueue = recording
        simulator.run(100, drain=False)
        assert ids, "high injection scale must produce packets"
        assert ids == sorted(ids)
        assert len(ids) == len(set(ids))
        assert simulator._next_packet_id == simulator.stats.packets_injected

    def test_packets_carry_route_and_size(self, simple_line_design):
        generator = FlowTrafficGenerator(simple_line_design, injection_scale=100.0, seed=1)
        table = WormholeNetwork(simple_line_design).flow_table
        fired = [name for cycle in range(50) for name in generator.fire(cycle)]
        assert fired, "high injection scale must produce packets"
        for name in fired:
            key, size = table[name]
            assert key == name  # a routed flow queues under its own name
            assert size == 8
            assert len(simple_line_design.routes.route(name).channels) >= 1

    def test_higher_rate_generates_more_packets(self, simple_line_design):
        low = FlowTrafficGenerator(simple_line_design, injection_scale=5.0, seed=2)
        high = FlowTrafficGenerator(simple_line_design, injection_scale=50.0, seed=2)
        low_count = sum(len(low.fire(c)) for c in range(200))
        high_count = sum(len(high.fire(c)) for c in range(200))
        assert high_count > low_count
