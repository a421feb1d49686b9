"""Tests for simulation statistics (repro.simulation.stats)."""

import pytest

from repro.model.channels import Channel, Link
from repro.simulation.stats import SimulationStats


class TestDerivedMetrics:
    def test_empty_stats(self):
        stats = SimulationStats("x")
        assert stats.average_latency == 0.0
        assert stats.max_latency == 0
        assert stats.throughput_flits_per_cycle == 0.0
        assert not stats.deadlock_detected

    def test_average_and_max_latency(self):
        stats = SimulationStats("x", latencies=[10, 20, 30])
        assert stats.average_latency == pytest.approx(20.0)
        assert stats.max_latency == 30

    def test_throughput(self):
        stats = SimulationStats("x", cycles_run=100, flits_delivered=50)
        assert stats.throughput_flits_per_cycle == pytest.approx(0.5)

    def test_packets_in_flight(self):
        stats = SimulationStats("x", packets_injected=10, packets_delivered=7)
        assert stats.packets_in_flight == 3

    def test_deadlock_flag(self):
        stats = SimulationStats("x", deadlock_cycle=500)
        assert stats.deadlock_detected

    def test_summary_mentions_deadlock_when_present(self):
        channel = Channel(Link("A", "B"))
        stats = SimulationStats("x", deadlock_cycle=5, deadlocked_channels=[channel])
        assert "DEADLOCK" in stats.summary()

    def test_summary_without_deadlock(self):
        assert "DEADLOCK" not in SimulationStats("x").summary()
