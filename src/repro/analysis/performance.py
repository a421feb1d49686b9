"""Network-performance evaluation of protected designs.

The paper's evaluation is about cost (VCs, power, area); a natural follow-up
question — and the reason designers care about adding as few VCs as possible
in the first place — is whether the protected design still performs.  This
module measures the classic latency-vs-offered-load curve.

A load point is a grid of one: :func:`measure_load_grid` (a curve, a seed
sweep, a scenario comparison) and :func:`measure_load_point` (one point)
share one body, which runs every point as a lane of
:func:`~repro.perf.batch_engine.run_batch` on the engine named by
``sim_engine`` and returns the metrics dictionary a
:class:`~repro.api.result.RunResult` records.  The experiment API's
``latency`` report is the cached, parallel way to sweep registry
benchmarks; these two functions serve ad-hoc
:class:`~repro.model.design.NocDesign` objects.  Neither calls the other,
so a wrapper around one of them counts its own calls only.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Sequence

from repro.model.design import NocDesign
from repro.simulation.events import EventSchedule
from repro.simulation.simulator import (
    DEFAULT_SIMULATION_ENGINE,
    SimulationConfig,
    make_traffic_generator,
)


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
    fault_schedule=None,
    fault_recovery: str = "removal",
) -> Dict[str, Any]:
    """Simulate one load point and return its metrics as a plain dictionary.

    A grid of one point (see :func:`measure_load_grid` for the point
    fields), so a cached :class:`~repro.api.result.RunResult` and a direct
    library call agree to the last digit.  Deadlocks are recorded, never
    raised.
    """
    point = {
        "injection_scale": injection_scale,
        "seed": seed,
        "traffic_scenario": traffic_scenario,
        "scenario_params": scenario_params,
        "fault_schedule": fault_schedule,
        "fault_recovery": fault_recovery,
    }
    (metrics,) = _measure(
        design, [point], max_cycles=max_cycles, buffer_depth=buffer_depth, sim_engine=sim_engine
    )
    return metrics


def measure_load_grid(
    design: NocDesign,
    points: Sequence[Mapping[str, Any]],
    *,
    max_cycles: int = 3000,
    buffer_depth: int = 4,
    sim_engine: str = DEFAULT_SIMULATION_ENGINE,
) -> List[Dict[str, Any]]:
    """Simulate several load points of one design as one grid of lanes.

    ``points`` are mappings with ``injection_scale`` (required) plus
    optional ``seed``, ``traffic_scenario``, ``scenario_params``,
    ``fault_schedule`` (anything
    :meth:`~repro.simulation.events.EventSchedule.from_spec` accepts) and
    ``fault_recovery`` (a :data:`repro.api.registry.recovery_policies`
    name), defaulting as in :func:`measure_load_point`; every point runs
    for the shared ``max_cycles`` / ``buffer_depth``.  Returns one metrics
    dictionary per point, in order; a point whose fault schedule is not
    empty gains a ``resilience`` sub-dictionary (fault-free records keep
    their exact historical shape).
    """
    return _measure(
        design, points, max_cycles=max_cycles, buffer_depth=buffer_depth, sim_engine=sim_engine
    )


def _measure(
    design: NocDesign,
    points: Sequence[Mapping[str, Any]],
    *,
    max_cycles: int,
    buffer_depth: int,
    sim_engine: str,
) -> List[Dict[str, Any]]:
    """The one body of both entry points: build the lanes, run, fold the metrics."""
    from repro.perf.batch_engine import run_batch  # local: the engines load lazily

    configs = [
        SimulationConfig(
            injection_scale=point["injection_scale"],
            buffer_depth=buffer_depth,
            seed=point.get("seed", 0),
            traffic_scenario=point.get("traffic_scenario", "flows"),
            scenario_params=dict(point.get("scenario_params") or {}),
            fault_schedule=EventSchedule.from_spec(
                point.get("fault_schedule"), topology=design.topology
            ),
            fault_recovery=point.get("fault_recovery", "removal"),
        )
        for point in points
    ]
    # The offered load comes from the lanes' own generators.
    generators = [make_traffic_generator(design, config) for config in configs]
    stats_list = run_batch(
        design, configs, max_cycles=max_cycles, generators=generators, engine=sim_engine
    )
    return [
        _point_metrics(config, generator.offered_flits_per_cycle, stats)
        for config, generator, stats in zip(configs, generators, stats_list)
    ]


def _point_metrics(config: SimulationConfig, offered: float, stats) -> Dict[str, Any]:
    """The metrics dictionary of one simulated load point."""
    metrics = {
        "injection_scale": config.injection_scale,
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
    schedule = config.fault_schedule
    if schedule is not None and len(schedule):
        recovered = [c for c in stats.recovery_cycles if c >= 0]
        metrics["resilience"] = {
            "fault_events_applied": stats.fault_events_applied,
            "packets_lost": stats.packets_lost,
            "flits_lost": stats.flits_lost,
            "flows_rerouted": stats.flows_rerouted,
            "recovery_cycles": list(stats.recovery_cycles),
            "batches_never_drained": stats.batches_never_drained,
            "mean_recovery_cycles": sum(recovered) / len(recovered) if recovered else 0.0,
            "post_fault_deadlock_free": stats.post_fault_deadlock_free,
        }
    return metrics
