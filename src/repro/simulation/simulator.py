"""The top-level simulator: traffic generation + network stepping + stats.

Typical use::

    from repro.simulation import Simulator, SimulationConfig

    sim = Simulator(design, SimulationConfig(injection_scale=3.0, seed=1))
    stats = sim.run(max_cycles=20_000)
    if stats.deadlock_detected:
        print("design deadlocked at cycle", stats.deadlock_cycle)

Deadlocks are reported in the returned statistics; pass
``raise_on_deadlock=True`` to get a :class:`repro.errors.DeadlockDetected`
exception instead (useful in tests of designs that must be deadlock free).

Two interchangeable engines drive a run, looked up by name in the
pluggable :data:`repro.api.registry.simulation_engines` registry:

* ``"compiled"`` (default) — :class:`repro.perf.sim_engine.CompiledSimulator`,
  an int-indexed array simulator whose per-cycle sweep iterates flat
  arrays instead of router/buffer objects;
* ``"legacy"`` — :class:`Simulator` below, the seed object-per-flit
  implementation kept as the cross-check reference.

``"batched"`` names the compiled engine too; its grids run as compiled
lanes (:func:`repro.perf.batch_engine.run_batch`), and every run goes
through :meth:`Simulator.run`.  Both engines produce field-identical
:class:`~repro.simulation.stats.SimulationStats`;
``simulate_design(..., cross_check=True)`` runs both and raises on any
divergence.  Traffic comes from the
:data:`repro.api.registry.traffic_scenarios` registry
(:attr:`SimulationConfig.traffic_scenario`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Optional

from repro.api.registry import simulation_engines, traffic_scenarios
from repro.errors import DeadlockDetected, SimulationError
from repro.model.design import NocDesign
from repro.model.validation import validate_design
from repro.power.orion import TechnologyParameters
from repro.simulation.deadlock import DeadlockMonitor
from repro.simulation.events import EventSchedule
from repro.simulation.network import WormholeNetwork
from repro.simulation.stats import SimulationStats

ENGINE_COMPILED = "compiled"
ENGINE_LEGACY = "legacy"
#: Engine used when callers do not choose one explicitly.
DEFAULT_SIMULATION_ENGINE = ENGINE_COMPILED


@dataclass
class SimulationConfig:
    """Knobs of a simulation run.

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
    tech:
        Technology parameters (channel capacity used to convert bandwidths
        into injection rates).
    traffic_scenario:
        Name in :data:`repro.api.registry.traffic_scenarios` (``"flows"``
        is the paper's bandwidth-proportional traffic).
    scenario_params:
        Extra keyword arguments for the scenario's generator factory
        (e.g. ``{"factor": 8.0}`` for ``hotspot``).
    fault_schedule:
        Optional :class:`~repro.simulation.events.EventSchedule` of
        link/router failures to inject mid-run.  The simulator then works
        on a private copy of the design (recovery mutates topology and
        routes) and a cross-check re-run replays the same schedule.
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
    tech: TechnologyParameters = TechnologyParameters()
    traffic_scenario: str = "flows"
    scenario_params: Dict[str, Any] = field(default_factory=dict)
    fault_schedule: Optional[EventSchedule] = None
    fault_recovery: str = "removal"


def make_traffic_generator(design: NocDesign, config: SimulationConfig):
    """The configured scenario's packet generator for ``design``.

    Both simulation engines build their generator through this helper, so a
    cross-checked pair of runs consumes identical packet sequences.
    """
    factory = traffic_scenarios.get(config.traffic_scenario)
    return factory(
        design,
        injection_scale=config.injection_scale,
        tech=config.tech,
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
        and hands each lane the generator it has already built.  A lane
        with a fault schedule still builds its own generator, on the
        private design copy it simulates.
        """
        simulator = cls.__new__(cls)
        simulator._setup(design, config, generator)
        return simulator

    def _setup(self, design: NocDesign, config: SimulationConfig, generator=None) -> None:
        self.config = config
        self._recovery = None
        schedule = config.fault_schedule
        if schedule is not None and len(schedule):
            # Fault recovery mutates the topology and routes mid-run; the
            # caller's design (and the legacy cross-check re-run, which
            # replays the same schedule from its own fresh copy) must keep
            # seeing the original.
            design = design.copy()
            from repro.simulation.recovery import RecoveryController

            self._recovery = RecoveryController(
                design, schedule, mode=config.fault_recovery
            )
            # The policy's prepare hook may replace the design (protection
            # provisions backup VCs before the run starts), so the network
            # and the generator must be built from the controller's view.
            design = self._recovery.design
            generator = None
        self.design = design
        self.network = self._build_network(design)
        if generator is None:
            generator = make_traffic_generator(design, config)
        self.generator = generator
        self.stats = SimulationStats(design_name=design.name)
        self.monitor = DeadlockMonitor(watchdog_cycles=config.watchdog_cycles)
        self._cycle = 0

    def _build_network(self, design: NocDesign):
        """Network-state factory — the hook an engine subclass overrides."""
        return WormholeNetwork(design, buffer_depth=self.config.buffer_depth)

    # ------------------------------------------------------------------
    def _inject_new_packets(self, cycle: int) -> None:
        for packet in self.generator.generate(cycle):
            flow = self.design.traffic.flow(packet.flow_name)
            src_switch = self.design.switch_of(flow.src)
            dst_switch = self.design.switch_of(flow.dst)
            self.stats.packets_injected += 1
            if src_switch == dst_switch:
                deliver_locally(self.stats, packet.size_flits)
                continue
            if not packet.route:
                # Only reachable under fault injection: the flow has no
                # route in the degraded topology, so its traffic is lost
                # at the network interface.
                self.stats.packets_lost += 1
                self.stats.flits_lost += packet.size_flits
                continue
            self.network.inject(packet)

    # ------------------------------------------------------------------
    def run(
        self,
        max_cycles: int = 10_000,
        *,
        drain: bool = True,
        drain_cycles: int = 5_000,
        raise_on_deadlock: bool = False,
    ) -> SimulationStats:
        """Simulate ``max_cycles`` of injection plus an optional drain phase.

        The drain phase stops injecting and keeps the network running until
        every in-flight packet has been delivered (or ``drain_cycles``
        elapse), so latency statistics are not biased towards short routes.
        The delivered-everything test is the network's O(1) undelivered-flit
        counter, so a run that drains early never pays a per-cycle walk
        over every router's buffers and injection queues.
        """
        recovery = self._recovery
        deadlock_channels = None
        for _ in range(max_cycles):
            if recovery is not None:
                recovery.on_cycle(self._cycle, self.network, self.stats)
            self._inject_new_packets(self._cycle)
            transfers = self.network.step(self._cycle, self.stats)
            deadlock_channels = self.monitor.record_cycle(self.network, transfers)
            if recovery is not None:
                recovery.after_step(self._cycle, self.network, self.stats)
            self._cycle += 1
            if deadlock_channels is not None:
                break

        if deadlock_channels is None and drain:
            self._cycle, deadlock_channels = drain_network(
                self.network, self.monitor, self.stats, self._cycle, drain_cycles, recovery
            )

        if recovery is not None:
            recovery.finalise(self.stats)
        self.stats.cycles_run = self._cycle
        if deadlock_channels is not None:
            self.stats.deadlock_cycle = self._cycle
            self.stats.deadlocked_channels = list(deadlock_channels)
            if raise_on_deadlock:
                raise DeadlockDetected(self._cycle, deadlock_channels)
        return self.stats


def deliver_locally(stats: SimulationStats, size_flits: int) -> None:
    """Record a packet between cores behind the same switch.

    Such traffic never enters the network: the local NI delivers it one
    cycle after its creation.
    """
    stats.packets_delivered += 1
    stats.local_deliveries += 1
    stats.flits_delivered += size_flits
    stats.latencies.append(1)


def drain_network(network, monitor, stats, cycle: int, drain_cycles: int, recovery=None):
    """The drain phase of a run: step without injecting until nothing is in flight.

    Stops when the network's O(1) undelivered-flit counter reaches zero,
    when ``monitor`` confirms a deadlock, or after ``drain_cycles`` cycles.
    Returns ``(cycle, deadlock_channels)``: the first cycle not simulated
    and the confirmed wait cycle (``None`` without a deadlock).  The drain
    phase of :meth:`Simulator.run`, and so of every engine's runs: a
    batched lane is a compiled run.
    """
    deadlock_channels = None
    for _ in range(drain_cycles):
        if network.undelivered_flits == 0:
            break
        # Events still pending once the drain completes are never applied
        # (the run is over as far as traffic is concerned).
        if recovery is not None:
            recovery.on_cycle(cycle, network, stats)
        transfers = network.step(cycle, stats)
        deadlock_channels = monitor.record_cycle(network, transfers)
        if recovery is not None:
            recovery.after_step(cycle, network, stats)
        cycle += 1
        if deadlock_channels is not None:
            break
    return cycle, deadlock_channels


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


def build_simulator(
    design: NocDesign,
    config: Optional[SimulationConfig] = None,
    *,
    engine: str = DEFAULT_SIMULATION_ENGINE,
):
    """Instantiate the named engine's simulator for ``design``."""
    return simulation_engines.get(engine)(design, config or SimulationConfig())


def verify_against_legacy(
    design: NocDesign,
    config: SimulationConfig,
    stats: SimulationStats,
    engine: str,
    **run_kwargs,
) -> None:
    """Re-run the legacy reference engine and raise on any stats divergence."""
    reference = Simulator(design, config).run(**run_kwargs)
    problems = stats_divergences(stats, reference)
    if problems:
        shown = "; ".join(problems[:5])
        extra = "" if len(problems) <= 5 else f" (+{len(problems) - 5} more)"
        raise SimulationError(
            f"simulation engine {engine!r} diverged from the legacy "
            f"reference: {shown}{extra}"
        )


def simulate_design(
    design: NocDesign,
    *,
    max_cycles: int = 10_000,
    config: Optional[SimulationConfig] = None,
    raise_on_deadlock: bool = False,
    engine: str = DEFAULT_SIMULATION_ENGINE,
    cross_check: bool = False,
    drain: bool = True,
    drain_cycles: int = 5_000,
    fault_schedule=None,
    fault_recovery: Optional[str] = None,
) -> SimulationStats:
    """One-call convenience wrapper around the pluggable simulation engines.

    ``engine`` names an entry of
    :data:`repro.api.registry.simulation_engines`; ``cross_check=True``
    additionally runs the reference ``"legacy"`` engine with an identical
    fresh configuration and raises :class:`~repro.errors.SimulationError`
    when any :class:`SimulationStats` field diverges.

    ``fault_schedule`` accepts anything
    :meth:`~repro.simulation.events.EventSchedule.from_spec` does — an
    :class:`~repro.simulation.events.EventSchedule`, an explicit
    ``{"events": [...]}`` document, or a ``{"random": {...}}`` request
    resolved against the design's topology with the config's seed — and
    overrides :attr:`SimulationConfig.fault_schedule`.  The cross-check
    re-run replays the identical schedule.  ``fault_recovery`` names a
    :data:`repro.api.registry.recovery_policies` entry and overrides
    :attr:`SimulationConfig.fault_recovery`.
    """
    config = config or SimulationConfig()
    if fault_schedule is not None:
        config = replace(
            config,
            fault_schedule=EventSchedule.from_spec(
                fault_schedule, topology=design.topology, seed=config.seed
            ),
        )
    if fault_recovery is not None:
        config = replace(config, fault_recovery=fault_recovery)
    simulator = build_simulator(design, config, engine=engine)
    run_kwargs = dict(
        drain=drain, drain_cycles=drain_cycles, raise_on_deadlock=raise_on_deadlock
    )
    stats = simulator.run(max_cycles, **run_kwargs)
    if cross_check and engine != ENGINE_LEGACY:
        verify_against_legacy(design, config, stats, engine, max_cycles=max_cycles, **run_kwargs)
    return stats
