"""Flit-level wormhole NoC simulator.

The paper argues deadlock freedom analytically (acyclic CDG); this package
provides the missing runtime evidence: a cycle-driven, flit-level simulator
with per-VC input buffers, credit-based wormhole flow control, source
routing and a deadlock detector.  Designs whose CDG contains cycles do
deadlock under pressure; the same designs after
:func:`repro.core.removal.remove_deadlocks` (or resource ordering) do not.

Simulation engines are pluggable
(:data:`repro.api.registry.simulation_engines`): ``"compiled"`` — the
int-indexed array engine from :mod:`repro.perf.sim_engine`, the default —
and ``"legacy"``, this package's object-per-flit :class:`Simulator`, kept
as the cross-check reference.  Traffic patterns are pluggable too
(:data:`repro.api.registry.traffic_scenarios`; built-ins in
:mod:`repro.simulation.scenarios`).
"""

from repro.simulation.events import EventSchedule, FaultEvent
from repro.simulation.recovery import RecoveryController
from repro.simulation.simulator import (
    DEFAULT_SIMULATION_ENGINE,
    SimulationConfig,
    Simulator,
    make_traffic_generator,
    simulate_design,
    stats_divergences,
)
from repro.simulation.stats import SimulationStats
from repro.simulation.traffic_gen import FlowTrafficGenerator

__all__ = [
    "DEFAULT_SIMULATION_ENGINE",
    "EventSchedule",
    "FaultEvent",
    "FlowTrafficGenerator",
    "RecoveryController",
    "Simulator",
    "SimulationConfig",
    "make_traffic_generator",
    "simulate_design",
    "SimulationStats",
    "stats_divergences",
]
