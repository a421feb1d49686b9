"""Tests for the latency-vs-load performance evaluation (repro.analysis.performance)."""

import pytest

from repro.analysis.metrics import load_point_failed
from repro.analysis.performance import measure_load_grid, measure_load_point
from repro.core.removal import remove_deadlocks
from repro.simulation.fault_models import uniform_model
from repro.simulation.simulator import SimulationConfig


def _point(offered, delivered, deadlocked=False):
    return {
        "offered_flits_per_cycle": offered,
        "delivered_flits_per_cycle": delivered,
        "deadlocked": deadlocked,
    }


def _grid(design, scales, max_cycles, **settings):
    configs = [SimulationConfig(injection_scale=scale, **settings) for scale in scales]
    return measure_load_grid(design, configs, max_cycles=max_cycles)


class TestLoadPoint:
    def test_saturation_flag(self):
        assert not load_point_failed(_point(1.0, 0.95))
        assert load_point_failed(_point(1.0, 0.5))
        assert load_point_failed(_point(1.0, 0.95, deadlocked=True))

    def test_zero_offer_never_saturated(self):
        assert not load_point_failed(_point(0.0, 0.0))


class TestSweep:
    def test_latency_grows_with_load(self, simple_line_design):
        low, high = _grid(simple_line_design, (0.5, 4.0), max_cycles=1500)
        assert high["packets_delivered"] > low["packets_delivered"]
        assert high["average_latency"] >= low["average_latency"]
        assert not low["deadlocked"] and not high["deadlocked"]

    def test_offered_load_scales_linearly(self, simple_line_design):
        low, high = _grid(simple_line_design, (0.5, 1.0), max_cycles=200)
        assert high["offered_flits_per_cycle"] == pytest.approx(
            2 * low["offered_flits_per_cycle"]
        )

    def test_unprotected_ring_deadlocks_in_sweep(self, ring_design_fixture):
        (point,) = _grid(ring_design_fixture, (6.0,), max_cycles=4000, buffer_depth=2, seed=1)
        assert point["deadlocked"]
        assert load_point_failed(point)

    def test_protected_ring_survives_same_sweep(self, ring_design_fixture):
        fixed = remove_deadlocks(ring_design_fixture).design
        (point,) = _grid(fixed, (6.0,), max_cycles=4000, buffer_depth=2, seed=1)
        assert not point["deadlocked"]

    def test_saturation_scale_none_when_healthy(self, simple_line_design):
        points = _grid(simple_line_design, (0.25, 0.5), max_cycles=500)
        assert not any(load_point_failed(point) for point in points)


class TestOneBody:
    def test_grid_point_equals_solo_point(self, small_mesh_design):
        """A load point is a grid of one: each grid cell matches its solo call."""
        schedule = uniform_model(
            small_mesh_design, seed=1, link_failures=1, start_cycle=40, end_cycle=200
        )
        configs = [
            SimulationConfig(injection_scale=1.5, seed=2, fault_schedule=schedule),
            SimulationConfig(
                injection_scale=1.5, seed=2, fault_schedule=schedule, fault_recovery="reroute"
            ),
            SimulationConfig(injection_scale=0.5, seed=3, traffic_scenario="bursty"),
        ]
        grid = measure_load_grid(small_mesh_design, configs, max_cycles=300)
        for config, cell in zip(configs, grid):
            assert cell == measure_load_point(small_mesh_design, config, max_cycles=300)
        assert "resilience" in grid[0] and "resilience" in grid[1]
        assert "resilience" not in grid[2]
        assert grid[0]["resilience"]["fault_events_applied"] > 0

    def test_engines_agree(self, small_mesh_design):
        configs = [SimulationConfig(injection_scale=scale, seed=1) for scale in (0.5, 2.0)]
        grids = [
            measure_load_grid(small_mesh_design, configs, max_cycles=300, sim_engine=engine)
            for engine in ("legacy", "compiled", "batched")
        ]
        assert grids[0] == grids[1] == grids[2]
