"""Network-performance evaluation of protected designs.

The paper's evaluation is about cost (VCs, power, area); a natural follow-up
question — and the reason designers care about adding as few VCs as possible
in the first place — is whether the protected design still performs.  This
module measures the classic latency-vs-offered-load curve.

A load point is one :class:`~repro.simulation.simulator.SimulationConfig`
(load, seed, traffic scenario, buffer depth, fault schedule, recovery
policy), and a load point is a grid of one: :func:`measure_load_grid` (a
curve, a seed sweep, a scenario comparison, an availability grid) and
:func:`measure_load_point` (one point) share one body, which runs every
config as a lane of :func:`~repro.perf.batch_engine.run_batch` on the
engine named by ``sim_engine`` and returns the metrics dictionary a
:class:`~repro.api.result.RunResult` records.  The experiment API's
``latency`` and ``availability`` reports are the cached, parallel way to
sweep registry benchmarks (the runner builds one config per spec); these
two functions serve ad-hoc :class:`~repro.model.design.NocDesign` objects
too.  Neither calls the other, so a wrapper around one of them counts its
own calls only.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.model.design import NocDesign
from repro.simulation.simulator import (
    DEFAULT_SIMULATION_ENGINE,
    SimulationConfig,
    make_traffic_generator,
)


def measure_load_point(
    design: NocDesign,
    config: SimulationConfig,
    *,
    max_cycles: int = 3000,
    sim_engine: str = DEFAULT_SIMULATION_ENGINE,
) -> Dict[str, Any]:
    """Simulate one load point and return its metrics as a plain dictionary.

    A grid of one point (see :func:`measure_load_grid`), so a cached
    :class:`~repro.api.result.RunResult` and a direct library call agree
    to the last digit.  Deadlocks are recorded, never raised.
    """
    (metrics,) = _measure(design, [config], max_cycles=max_cycles, sim_engine=sim_engine)
    return metrics


def measure_load_grid(
    design: NocDesign,
    configs: Sequence[SimulationConfig],
    *,
    max_cycles: int = 3000,
    sim_engine: str = DEFAULT_SIMULATION_ENGINE,
) -> List[Dict[str, Any]]:
    """Simulate several load points of one design as one grid of lanes.

    Each config describes one lane whole; every lane injects for the
    shared ``max_cycles``.  Returns one metrics dictionary per config, in
    order; a lane whose fault schedule is not empty gains a
    ``resilience`` sub-dictionary (fault-free records keep their exact
    historical shape).
    """
    return _measure(design, configs, max_cycles=max_cycles, sim_engine=sim_engine)


def _measure(
    design: NocDesign,
    configs: Sequence[SimulationConfig],
    *,
    max_cycles: int,
    sim_engine: str,
) -> List[Dict[str, Any]]:
    """The one body of both entry points: run the lanes, fold the metrics."""
    from repro.perf.batch_engine import run_batch  # local: the engines load lazily

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
