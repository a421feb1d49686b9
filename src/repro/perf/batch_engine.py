"""Batched wormhole simulation: B runs of one design as lanes.

A latency curve, a seed sweep, a scenario comparison or an availability
grid is a *grid* of simulations of one design that differ in load point,
seed, traffic pattern, fault schedule or recovery policy: one
:class:`~repro.simulation.simulator.SimulationConfig` per lane, which
describes it whole.  :func:`run_batch` runs such a grid as B lanes, one
after another.  Each lane is a simulator of the chosen engine on its own
network and runs through the shared run and injection loops
(:meth:`Simulator.run <repro.simulation.simulator.Simulator.run>`), so its
statistics are those of a solo run of that engine by construction.  A
load point is a grid of one, and so is
:func:`~repro.simulation.simulator.simulate_design`.

What a grid shares is set-up and randomness:

* the design is validated once, and every lane, fault lanes included,
  injects from the generator the caller already built
  (:func:`~repro.analysis.performance.measure_load_grid` reads the
  offered load from them);
* lanes whose generators keep the base Bernoulli ``fire`` (``flows`` and
  the spatial re-weightings: one uniform double per flow per cycle, in
  flow-name order) and start from the same RNG state fire from one
  stream: one plain sweep when their rates agree too, else one draw
  ranked once per group;
* fault lanes of the ``protection`` policy provision their backups once
  per design (:meth:`~repro.simulation.recovery.ProtectionPolicy.prepare`);
  every fault lane then repairs its own copy.

``"batched"`` registers :class:`CompiledSimulator` itself, so a B = 1
batched run is a compiled run, fault schedules included.
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_left
from itertools import repeat, starmap
from typing import Any, Dict, List, Optional, Sequence

from repro.api.registry import simulation_engines
from repro.errors import SimulationError
from repro.model.design import NocDesign
from repro.model.validation import validate_design
from repro.perf.sim_engine import CompiledSimulator
from repro.simulation.simulator import (
    DEFAULT_SIMULATION_ENGINE,
    SimulationConfig,
    make_traffic_generator,
)
from repro.simulation.stats import SimulationStats
from repro.simulation.traffic_gen import FlowTrafficGenerator

ENGINE_BATCHED = "batched"


def _is_fast_generator(generator) -> bool:
    """True when the generator's per-cycle draws are the base Bernoulli sweep."""
    return (
        isinstance(generator, FlowTrafficGenerator)
        and type(generator).fire is FlowTrafficGenerator.fire
    )


def _share_draw_streams(generators: Sequence[Any], max_cycles: int) -> None:
    """Make lanes that would draw the same doubles fire from shared lists.

    Lanes group by flow order and RNG state, so a group's members would
    draw identical sequences, and members with the same rates too would
    fire identically.  Each member's ``fire`` becomes its per-cycle list's
    ``__getitem__``, one list per distinct rate vector, holding the same
    flows in the same order as drawing the stream itself would give:

    * when every member of a group has the same rates (an availability
      grid: one load, many fault draws), the first member's own ``fire``
      runs over ``max_cycles`` once and every member fires from that list;
    * otherwise (a latency curve: one seed, many loads) the group draws
      ``max_cycles × flows`` doubles once, from a copy of that state
      (seeded first, then overwritten by ``setstate``).  ``fire`` fires a
      flow in the cycles whose draw is below the flow's rate, so once each
      flow's draws are ranked, a rate's firing cycles for that flow are a
      prefix of the ranking, found by one bisection, without a
      Python-level comparison per flow per cycle.
    """
    groups: Dict[Any, Dict[Any, List[Any]]] = {}
    for generator in generators:
        if _is_fast_generator(generator):
            key = (tuple(generator._flow_order), generator._rng.getstate())
            rates = tuple(generator._draw_rates)
            groups.setdefault(key, {}).setdefault(rates, []).append(generator)
    for (order, state), by_rates in groups.items():
        if len(by_rates) == 1:
            (members,) = by_rates.values()
            if len(members) > 1:
                fired = list(map(members[0].fire, range(max_cycles)))
                for generator in members:
                    generator.fire = fired.__getitem__
            continue
        rng = random.Random(0)
        rng.setstate(state)
        flows = len(order)
        stream = array("d", starmap(rng.random, repeat((), max_cycles * flows)))
        ranked = []
        for flow in range(flows):
            draws = stream[flow::flows]
            cycles = array("l", sorted(range(max_cycles), key=draws.__getitem__))
            ranked.append((array("d", sorted(draws)), cycles))
        for rates, members in by_rates.items():
            fired = [()] * max_cycles
            for (name, rate), (draws, cycles) in zip(rates, ranked):
                for cycle in cycles[: bisect_left(draws, rate)]:
                    if fired[cycle]:
                        fired[cycle].append(name)
                    else:
                        fired[cycle] = [name]
            for generator in members:
                generator.fire = fired.__getitem__


def run_batch(
    design: NocDesign,
    configs: Sequence[SimulationConfig],
    *,
    max_cycles: int = 10_000,
    generators: Optional[Sequence[Any]] = None,
    engine: str = DEFAULT_SIMULATION_ENGINE,
) -> List[SimulationStats]:
    """Run B simulations of one design, one lane after another.

    Each :class:`SimulationConfig` describes one lane whole, so
    ``configs`` may differ in anything (load, seed, scenario, buffer
    depth, watchdog, fault schedule, recovery policy); every lane injects
    for ``max_cycles`` and then drains with :meth:`Simulator.run
    <repro.simulation.simulator.Simulator.run>`'s defaults.  ``engine``
    names the :data:`~repro.api.registry.simulation_engines` entry whose
    simulator each lane is.  Returns one :class:`SimulationStats` per
    config, in order, field-identical to a solo run of that simulator,
    ``simulation_engines.get(engine)(design, config).run(max_cycles)``;
    a lane whose fault schedule names a link or switch the design lacks
    raises :class:`SimulationError` as that solo run does.

    ``generators`` optionally supplies the traffic generators (one per
    config, as :func:`make_traffic_generator` would build them), so callers
    can read ``offered_flits_per_cycle`` without building them twice.  The
    run consumes them.
    """
    if not configs:
        raise SimulationError("a batched run needs at least one configuration")
    if generators is not None and len(generators) != len(configs):
        raise SimulationError(
            f"a batched run needs one generator per configuration: "
            f"{len(generators)} generators for {len(configs)} configurations"
        )
    validate_design(design)
    if generators is None:
        generators = [make_traffic_generator(design, config) for config in configs]
    _share_draw_streams(generators, max_cycles)
    simulator = simulation_engines.get(engine)
    return [
        simulator.lane(design, config, generator).run(max_cycles)
        for config, generator in zip(configs, generators)
    ]


simulation_engines.register(ENGINE_BATCHED, CompiledSimulator)
