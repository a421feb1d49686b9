"""The top-level simulator: traffic generation + network stepping + stats.

Typical use::

    from repro.simulation import SimulationConfig, simulate_design

    config = SimulationConfig(injection_scale=3.0, seed=1)
    stats = simulate_design(design, max_cycles=20_000, config=config)
    if stats.deadlock_detected:
        print("design deadlocked at cycle", stats.deadlock_cycle)

A :class:`SimulationConfig` describes a run whole — load, seed, traffic
scenario, buffer depth, fault schedule and recovery policy — from the
experiment runner's specs and the CLI down to :meth:`Simulator._setup`;
only the run length and the engine are passed beside it.  Deadlocks are
reported in the returned statistics; ``simulate_design(...,
raise_on_deadlock=True)`` raises :class:`repro.errors.DeadlockDetected`
instead (useful in tests of designs that must be deadlock free).

Two interchangeable engines drive a run, looked up by name in the
pluggable :data:`repro.api.registry.simulation_engines` registry:

* ``"compiled"`` (default) — :class:`repro.perf.sim_engine.CompiledSimulator`,
  an int-indexed array simulator whose per-cycle sweep iterates flat
  arrays instead of router/buffer objects;
* ``"legacy"`` — :class:`Simulator` below, the seed object-per-flit
  implementation kept as the cross-check reference.

``"batched"`` names the compiled engine too.  Every grid runs as lanes
of :func:`repro.perf.batch_engine.run_batch`, and :func:`simulate_design`
is a grid of one.  Every run of every engine goes through
:meth:`Simulator.run` and its one injection loop,
:meth:`Simulator._inject_new_packets`: the generator names the flows
that fire (``fire(cycle)``), the simulator numbers the packets and the
network queues them by its ``flow_table``.  Both engines produce
field-identical :class:`~repro.simulation.stats.SimulationStats`;
``simulate_design(..., cross_check=True)`` runs both and raises on any
divergence.  Traffic comes from the
:data:`repro.api.registry.traffic_scenarios` registry
(:attr:`SimulationConfig.traffic_scenario`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.api.registry import simulation_engines, traffic_scenarios
from repro.domains import POSITIVE, Domains, at_least
from repro.errors import DeadlockDetected, SimulationError
from repro.model.design import NocDesign
from repro.model.validation import validate_design
from repro.simulation.deadlock import DeadlockMonitor
from repro.simulation.events import EventSchedule
from repro.simulation.network import LOCAL_FLOW, UNROUTED_FLOW, WormholeNetwork
from repro.simulation.stats import SimulationStats

ENGINE_COMPILED = "compiled"
ENGINE_LEGACY = "legacy"
#: Engine used when callers do not choose one explicitly.
DEFAULT_SIMULATION_ENGINE = ENGINE_COMPILED


@dataclass
class SimulationConfig:
    """The settings of one simulation run (one lane of a grid).

    Everything but the run length and the engine; the experiment runner
    builds one per spec and runs it on every design variant.  Settings out
    of their declared domains (buffers of no flits, a load that is not
    positive and finite, a watchdog window of no cycles) raise
    :class:`~repro.errors.SimulationError`.

    Attributes
    ----------
    buffer_depth:
        Flit capacity of every virtual-channel input buffer.  Deadlocks in
        cyclic designs appear more readily when packets are longer than the
        buffers (a packet then spans several routers).
    injection_scale:
        Multiplier on the nominal flow bandwidths (1.0 = as specified).
    watchdog_cycles:
        No-progress window before the deadlock check runs.
    seed:
        Random seed of the traffic generator.
    traffic_scenario:
        Name in :data:`repro.api.registry.traffic_scenarios` (``"flows"``
        is the paper's bandwidth-proportional traffic).
    scenario_params:
        Extra keyword arguments for the scenario's generator factory
        (e.g. ``{"factor": 8.0}`` for ``hotspot``).
    fault_schedule:
        Optional :class:`~repro.simulation.events.EventSchedule` of
        link/router failures to inject mid-run (a spec's fault request
        resolves into one through
        :func:`~repro.simulation.fault_models.build_fault_schedule`).  The
        simulator then works on a private copy of the design (recovery
        mutates topology and routes) and a cross-check re-run replays the
        same schedule.  Every run checks the schedule's targets against
        the design it simulates
        (:class:`~repro.simulation.recovery.RecoveryController`), so a
        schedule naming a missing link or switch raises
        :class:`~repro.errors.SimulationError` before the first cycle.
    fault_recovery:
        Name in :data:`repro.api.registry.recovery_policies` of the
        policy repairing the route set after each fault batch:
        ``"removal"`` (default) re-routes and re-runs deadlock removal,
        ``"reroute"`` skips the removal re-run (used to study
        unprotected degradation), ``"idle"`` quiesces severed flows
        until their links restore, and ``"protection"`` swaps in
        pre-provisioned backup routes with no mid-run routing.
    """

    buffer_depth: int = 4
    injection_scale: float = 1.0
    watchdog_cycles: int = 200
    seed: int = 0
    traffic_scenario: str = "flows"
    scenario_params: Dict[str, Any] = field(default_factory=dict)
    fault_schedule: Optional[EventSchedule] = None
    fault_recovery: str = "removal"

    #: The settings' bounds; each setting's kind is its annotation (:mod:`repro.domains`).
    domains = Domains("simulation config", SimulationError, buffer_depth=at_least(1),
                      injection_scale=POSITIVE, watchdog_cycles=at_least(1))

    def __post_init__(self):
        self.domains.check(self.__dict__)


def make_traffic_generator(design: NocDesign, config: SimulationConfig):
    """The configured scenario's packet generator for ``design``.

    Both simulation engines build their generator through this helper, so a
    cross-checked pair of runs consumes identical packet sequences.  The
    scenario's declared domains (:func:`repro.domains.knobs`) check
    ``scenario_params``, where the config's own ``injection_scale`` and
    ``seed`` are unknown, before the call.
    """
    factory = traffic_scenarios.get(config.traffic_scenario)
    factory.domains.check(config.scenario_params, exclude=("injection_scale", "seed"))
    return factory(
        design,
        injection_scale=config.injection_scale,
        seed=config.seed,
        **config.scenario_params,
    )


class Simulator:
    """Flit-level wormhole simulation of one design (the seed engine)."""

    def __init__(self, design: NocDesign, config: Optional[SimulationConfig] = None):
        validate_design(design)
        self._setup(design, config or SimulationConfig())

    @classmethod
    def lane(cls, design: NocDesign, config: SimulationConfig, generator):
        """A simulator of an already validated ``design`` injecting from ``generator``.

        How a batched grid builds its lanes: it validates the design once
        and hands each lane the generator it has already built, fault
        lanes included (a generator reads the design only when it is
        built, so it serves the private copy a fault lane simulates).
        """
        simulator = cls.__new__(cls)
        simulator._setup(design, config, generator)
        return simulator

    def _setup(self, design: NocDesign, config: SimulationConfig, generator=None) -> None:
        self.config = config
        self._recovery = None
        if generator is None:
            generator = make_traffic_generator(design, config)
        schedule = config.fault_schedule
        if schedule is not None and len(schedule):
            from repro.simulation.recovery import RecoveryController

            # Fault recovery mutates the topology and routes mid-run, so the
            # run simulates the controller's private copy (protection's
            # carries the provisioned backups); the caller's design, shared
            # by a grid's lanes and the legacy cross-check re-run, keeps
            # its original state.
            self._recovery = RecoveryController(
                design, schedule, mode=config.fault_recovery
            )
            design = self._recovery.design
        self.design = design
        self.network = self._build_network(design)
        self.generator = generator
        self.stats = SimulationStats(design_name=design.name)
        self.monitor = DeadlockMonitor(watchdog_cycles=config.watchdog_cycles)
        self._cycle = 0
        #: Id of the next packet created: every fired flow gets one, local
        #: deliveries and NI losses included.
        self._next_packet_id = 0

    def _build_network(self, design: NocDesign):
        """Network-state factory — the hook an engine subclass overrides."""
        return WormholeNetwork(design, buffer_depth=self.config.buffer_depth)

    # ------------------------------------------------------------------
    def _inject_new_packets(self, cycle: int) -> None:
        """Create the packets the generator fires at ``cycle`` and queue them.

        The one injection loop of every engine, lane, fault run and trace
        replay: each fired flow name is looked up in the network's
        ``flow_table`` (rebuilt whenever fault recovery changes the
        routes) and numbered in firing order.
        """
        fired = self.generator.fire(cycle)
        if not fired:
            return
        stats = self.stats
        table = self.network.flow_table
        enqueue = self.network.enqueue
        pid = self._next_packet_id
        for name in fired:
            key, size = table[name]
            if key == LOCAL_FLOW:
                # Cores behind one switch: the local NI delivers the packet
                # one cycle after its creation, outside the network.
                stats.packets_delivered += 1
                stats.local_deliveries += 1
                stats.flits_delivered += size
                stats.latencies.append(1)
            elif key == UNROUTED_FLOW:
                stats.packets_lost += 1
                stats.flits_lost += size
            else:
                enqueue(key, pid, size, cycle)
            pid += 1
        self._next_packet_id = pid
        stats.packets_injected += len(fired)

    # ------------------------------------------------------------------
    def run(
        self,
        max_cycles: int = 10_000,
        *,
        drain: bool = True,
        drain_cycles: int = 5_000,
    ) -> SimulationStats:
        """Simulate ``max_cycles`` of injection plus an optional drain phase.

        The drain phase stops injecting and keeps the network running until
        every in-flight packet has been delivered (or ``drain_cycles``
        elapse), so latency statistics are not biased towards short routes.
        The delivered-everything test is the network's O(1) undelivered-flit
        counter, so a run that drains early never pays a per-cycle walk
        over every router's buffers and injection queues.  A confirmed
        deadlock ends either phase.
        """
        recovery = self._recovery
        network, stats = self.network, self.stats
        deadlock_channels = None
        for step in range(max_cycles + (drain_cycles if drain else 0)):
            injecting = step < max_cycles
            if not injecting and network.undelivered_flits == 0:
                break  # drained; fault events still pending are never applied
            if recovery is not None:
                recovery.on_cycle(self._cycle, network, stats)
            if injecting:
                self._inject_new_packets(self._cycle)
            transfers = network.step(self._cycle, stats)
            deadlock_channels = self.monitor.record_cycle(network, transfers)
            if recovery is not None:
                recovery.after_step(self._cycle, network, stats)
            self._cycle += 1
            if deadlock_channels is not None:
                break

        self.stats.cycles_run = self._cycle
        if deadlock_channels is not None:
            self.stats.deadlock_cycle = self._cycle
            self.stats.deadlocked_channels = list(deadlock_channels)
        return self.stats


simulation_engines.register(ENGINE_LEGACY, Simulator)


def stats_divergences(mine: SimulationStats, theirs: SimulationStats) -> list:
    """Field-by-field comparison of two runs' statistics.

    The single comparison the ``cross_check`` flag, the equivalence tests
    and the simulation benchmark all share — one place to extend if
    :class:`SimulationStats` ever gains a field needing special handling.
    """
    problems = []
    for name in SimulationStats.__dataclass_fields__:
        a, b = getattr(mine, name), getattr(theirs, name)
        if a != b:
            shown_a = a if not isinstance(a, (list, dict)) else f"<{len(a)} entries>"
            shown_b = b if not isinstance(b, (list, dict)) else f"<{len(b)} entries>"
            problems.append(f"{name}: {shown_a!r} != {shown_b!r}")
    return problems


def simulate_design(
    design: NocDesign,
    *,
    max_cycles: int = 10_000,
    config: Optional[SimulationConfig] = None,
    raise_on_deadlock: bool = False,
    engine: str = DEFAULT_SIMULATION_ENGINE,
    cross_check: bool = False,
) -> SimulationStats:
    """One simulation of ``design``: a one-lane :func:`~repro.perf.batch_engine.run_batch`.

    ``engine`` names an entry of
    :data:`repro.api.registry.simulation_engines`; ``cross_check=True``
    additionally runs the reference ``"legacy"`` engine with the same
    ``config`` (fault schedule and recovery policy included) and raises
    :class:`~repro.errors.SimulationError` when any
    :class:`SimulationStats` field diverges.  Only after that comparison
    does ``raise_on_deadlock=True`` turn a deadlocked run into
    :class:`~repro.errors.DeadlockDetected`.
    """
    from repro.perf.batch_engine import run_batch  # local: the engines load lazily

    config = config or SimulationConfig()
    (stats,) = run_batch(design, [config], max_cycles=max_cycles, engine=engine)
    if cross_check and engine != ENGINE_LEGACY:
        (reference,) = run_batch(design, [config], max_cycles=max_cycles, engine=ENGINE_LEGACY)
        problems = stats_divergences(stats, reference)
        if problems:
            shown = "; ".join(problems[:5])
            extra = "" if len(problems) <= 5 else f" (+{len(problems) - 5} more)"
            raise SimulationError(
                f"simulation engine {engine!r} diverged from the legacy "
                f"reference: {shown}{extra}"
            )
    if raise_on_deadlock and stats.deadlock_detected:
        raise DeadlockDetected(stats.deadlock_cycle, stats.deadlocked_channels)
    return stats
