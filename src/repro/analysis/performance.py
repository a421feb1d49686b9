"""Network-performance evaluation of protected designs.

The paper's evaluation is about cost (VCs, power, area); a natural follow-up
question — and the reason designers care about adding as few VCs as possible
in the first place — is whether the protected design still performs.  This
module reports the classic latency-vs-offered-load curve.

Since the compiled-simulation PR this is a *thin adapter* over the
pluggable simulation stack: every point is measured by
:func:`measure_load_point` through the
:data:`repro.api.registry.simulation_engines` and
:data:`~repro.api.registry.traffic_scenarios` registries (``sim_engine``
and ``traffic_scenario`` select implementations by name), and the
experiment API reuses the same helper for the cached, parallel
``latency`` report (:mod:`repro.api.reports`) — prefer that report for
sweeps over registry benchmarks; this module remains the library entry
point for ad-hoc :class:`~repro.model.design.NocDesign` objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

from repro.analysis.metrics import is_saturated
from repro.model.design import NocDesign
from repro.simulation.events import EventSchedule
from repro.simulation.simulator import (
    DEFAULT_SIMULATION_ENGINE,
    SimulationConfig,
    build_simulator,
    make_traffic_generator,
    verify_against_legacy,
)


@dataclass
class LoadPoint:
    """One point of a latency-vs-load curve."""

    injection_scale: float
    offered_flits_per_cycle: float
    delivered_flits_per_cycle: float
    average_latency: float
    max_latency: int
    packets_delivered: int
    deadlocked: bool

    @property
    def saturated(self) -> bool:
        """Heuristic saturation flag (:func:`~repro.analysis.metrics.is_saturated`)."""
        return is_saturated(self.offered_flits_per_cycle, self.delivered_flits_per_cycle)


@dataclass
class LoadSweep:
    """A latency-vs-load curve for one design."""

    design_name: str
    points: List[LoadPoint] = field(default_factory=list)

    @property
    def saturation_scale(self) -> Optional[float]:
        """Smallest injection scale at which the design saturates (or None)."""
        for point in self.points:
            if point.deadlocked or point.saturated:
                return point.injection_scale
        return None

    def as_rows(self) -> List[List]:
        """Table rows: scale, offered, delivered, latency, deadlocked."""
        return [
            [
                point.injection_scale,
                round(point.offered_flits_per_cycle, 4),
                round(point.delivered_flits_per_cycle, 4),
                round(point.average_latency, 1),
                point.deadlocked,
            ]
            for point in self.points
        ]


def measure_load_point(
    design: NocDesign,
    *,
    injection_scale: float,
    max_cycles: int = 3000,
    buffer_depth: int = 4,
    seed: int = 0,
    traffic_scenario: str = "flows",
    scenario_params: Optional[Dict[str, Any]] = None,
    sim_engine: str = DEFAULT_SIMULATION_ENGINE,
    cross_check: bool = False,
    fault_schedule=None,
    fault_recovery: str = "removal",
) -> Dict[str, Any]:
    """Simulate one load point and return its metrics as a plain dictionary.

    The single simulation entry point shared by :func:`load_latency_sweep`
    and the experiment API's ``latency`` report, so a cached
    :class:`~repro.api.result.RunResult` and a direct library call agree to
    the last digit.  Deadlocks are recorded, never raised.

    ``fault_schedule`` accepts anything
    :meth:`~repro.simulation.events.EventSchedule.from_spec` does; when it
    yields a non-empty schedule the returned metrics gain a ``resilience``
    sub-dictionary (fault-free records keep their exact historical shape).
    ``fault_recovery`` names the
    :data:`repro.api.registry.recovery_policies` entry repairing the
    route set after each fault batch.
    """
    schedule = EventSchedule.from_spec(
        fault_schedule, topology=design.topology, seed=seed
    )
    config = SimulationConfig(
        injection_scale=injection_scale,
        buffer_depth=buffer_depth,
        seed=seed,
        traffic_scenario=traffic_scenario,
        scenario_params=dict(scenario_params or {}),
        fault_schedule=schedule,
        fault_recovery=fault_recovery,
    )
    # Read the offered load from the engine's own generator instead of
    # constructing a throwaway second one.
    simulator = build_simulator(design, config, engine=sim_engine)
    offered = simulator.generator.offered_flits_per_cycle
    stats = simulator.run(max_cycles)
    if cross_check and sim_engine != "legacy":
        verify_against_legacy(design, config, stats, sim_engine, max_cycles=max_cycles)
    metrics = _point_metrics(injection_scale, offered, stats)
    if schedule is not None and len(schedule):
        recovered = [c for c in stats.recovery_cycles if c >= 0]
        metrics["resilience"] = {
            "fault_events_applied": stats.fault_events_applied,
            "packets_lost": stats.packets_lost,
            "flits_lost": stats.flits_lost,
            "flows_rerouted": stats.flows_rerouted,
            "recovery_cycles": list(stats.recovery_cycles),
            "batches_never_drained": stats.batches_never_drained,
            "mean_recovery_cycles": (
                sum(recovered) / len(recovered) if recovered else 0.0
            ),
            "post_fault_deadlock_free": stats.post_fault_deadlock_free,
        }
    return metrics


def _point_metrics(injection_scale: float, offered: float, stats) -> Dict[str, Any]:
    """The fault-free metrics dictionary of one simulated load point.

    Shared by :func:`measure_load_point` and :func:`measure_load_grid` so a
    batched grid cell and a solo run serialize to byte-identical documents.
    """
    return {
        "injection_scale": injection_scale,
        "offered_flits_per_cycle": offered,
        "delivered_flits_per_cycle": stats.throughput_flits_per_cycle,
        "average_latency": stats.average_latency,
        "max_latency": stats.max_latency,
        "packets_injected": stats.packets_injected,
        "packets_delivered": stats.packets_delivered,
        "flits_delivered": stats.flits_delivered,
        "cycles_run": stats.cycles_run,
        "deadlocked": stats.deadlock_detected,
        "deadlock_cycle": stats.deadlock_cycle,
    }


def measure_load_grid(
    design: NocDesign,
    points: Sequence[Dict[str, Any]],
    *,
    max_cycles: int = 3000,
    buffer_depth: int = 4,
) -> List[Dict[str, Any]]:
    """Simulate several load points of one design as one batched grid.

    ``points`` are mappings with ``injection_scale`` (required) plus
    optional ``seed``, ``traffic_scenario`` and ``scenario_params``; every
    point runs for the shared ``max_cycles`` / ``buffer_depth``.  Returns
    one metrics dictionary per point, in order, with exactly the shape
    (and values) :func:`measure_load_point` produces for the same
    arguments: each point is a compiled lane of
    :func:`~repro.perf.batch_engine.run_batch`, which validates the design
    once and injects from the generators built here for the offered load.
    """
    from repro.perf.batch_engine import run_batch  # local: the engines load lazily

    configs = [
        SimulationConfig(
            injection_scale=point["injection_scale"],
            buffer_depth=buffer_depth,
            seed=point.get("seed", 0),
            traffic_scenario=point.get("traffic_scenario", "flows"),
            scenario_params=dict(point.get("scenario_params") or {}),
        )
        for point in points
    ]
    generators = [make_traffic_generator(design, config) for config in configs]
    stats_list = run_batch(design, configs, max_cycles=max_cycles, generators=generators)
    return [
        _point_metrics(
            config.injection_scale, generator.offered_flits_per_cycle, stats
        )
        for config, generator, stats in zip(configs, generators, stats_list)
    ]


def _load_point_from_metrics(metrics: Dict[str, Any]) -> LoadPoint:
    return LoadPoint(
        injection_scale=metrics["injection_scale"],
        offered_flits_per_cycle=metrics["offered_flits_per_cycle"],
        delivered_flits_per_cycle=metrics["delivered_flits_per_cycle"],
        average_latency=metrics["average_latency"],
        max_latency=metrics["max_latency"],
        packets_delivered=metrics["packets_delivered"],
        deadlocked=metrics["deadlocked"],
    )


def load_latency_sweep(
    design: NocDesign,
    *,
    injection_scales: Sequence[float] = (0.25, 0.5, 0.75, 1.0, 1.5, 2.0),
    max_cycles: int = 3000,
    buffer_depth: int = 4,
    seed: int = 0,
    traffic_scenario: str = "flows",
    scenario_params: Optional[Dict[str, Any]] = None,
    sim_engine: str = DEFAULT_SIMULATION_ENGINE,
) -> LoadSweep:
    """Simulate ``design`` at several injection scales and collect the curve.

    Deadlocked points are recorded (not raised) so sweeps over unprotected
    designs show where they fall over.
    """
    sweep = LoadSweep(design_name=design.name)
    for scale in injection_scales:
        sweep.points.append(
            _load_point_from_metrics(
                measure_load_point(
                    design,
                    injection_scale=scale,
                    max_cycles=max_cycles,
                    buffer_depth=buffer_depth,
                    seed=seed,
                    traffic_scenario=traffic_scenario,
                    scenario_params=scenario_params,
                    sim_engine=sim_engine,
                )
            )
        )
    return sweep


def compare_performance(
    designs: Dict[str, NocDesign],
    *,
    injection_scales: Sequence[float] = (0.5, 1.0, 1.5),
    max_cycles: int = 3000,
    buffer_depth: int = 4,
    seed: int = 0,
    traffic_scenario: str = "flows",
    scenario_params: Optional[Dict[str, Any]] = None,
    sim_engine: str = DEFAULT_SIMULATION_ENGINE,
) -> Dict[str, LoadSweep]:
    """Run :func:`load_latency_sweep` for several named designs."""
    return {
        label: load_latency_sweep(
            design,
            injection_scales=injection_scales,
            max_cycles=max_cycles,
            buffer_depth=buffer_depth,
            seed=seed,
            traffic_scenario=traffic_scenario,
            scenario_params=scenario_params,
            sim_engine=sim_engine,
        )
        for label, design in designs.items()
    }
