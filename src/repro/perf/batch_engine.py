"""Batched wormhole simulation: B runs of one design as lanes.

A latency curve, a seed sweep or a scenario comparison is a *grid* of
simulations of one design that differ in load point, seed, traffic
pattern or fault schedule.  :func:`run_batch` runs such a grid as B lanes,
one after another.  Each lane is a simulator of the chosen engine on its
own network and runs through the shared run and injection loops
(:meth:`Simulator.run <repro.simulation.simulator.Simulator.run>`), so its
statistics are those of a solo run of that engine by construction.  A
load point is a grid of one.

What a grid shares is set-up and randomness:

* the design is validated once, and every lane, fault lanes included,
  injects from the generator the caller already built
  (:func:`~repro.analysis.performance.measure_load_grid` reads the
  offered load from them);
* lanes whose generators keep the base Bernoulli ``fire`` (``flows`` and
  the spatial re-weightings: one uniform double per flow per cycle, in
  flow-name order) and start from the same RNG state fire from one
  stream, drawn and ranked once per group.

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
    """Make lanes that would draw the same doubles fire from one stream of them.

    Lanes group by flow order and RNG state, so a group's members would
    draw identical sequences.  A group draws ``max_cycles × flows`` doubles
    once, from a copy of that state (seeded first, then overwritten by
    ``setstate``).  ``fire`` fires a flow in the cycles whose draw is
    below the flow's rate, so once each flow's draws are ranked, a member's
    firing cycles for that flow are a prefix of the ranking, found by one
    bisection.  Each member's ``fire`` is then its per-cycle list's
    ``__getitem__``: the same flows, in the same order, as drawing the
    stream itself would give, without a Python-level comparison per flow
    per cycle.
    """
    groups: Dict[Any, List[Any]] = {}
    for generator in generators:
        if _is_fast_generator(generator):
            key = (tuple(generator._flow_order), generator._rng.getstate())
            groups.setdefault(key, []).append(generator)
    for (order, state), members in groups.items():
        if len(members) < 2:
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
        for generator in members:
            fired: List[Any] = [()] * max_cycles
            for (name, rate), (draws, cycles) in zip(generator._draw_rates, ranked):
                for cycle in cycles[: bisect_left(draws, rate)]:
                    if fired[cycle]:
                        fired[cycle].append(name)
                    else:
                        fired[cycle] = [name]
            generator.fire = fired.__getitem__


def run_batch(
    design: NocDesign,
    configs: Sequence[SimulationConfig],
    *,
    max_cycles: int = 10_000,
    drain: bool = True,
    drain_cycles: int = 5_000,
    generators: Optional[Sequence[Any]] = None,
    engine: str = DEFAULT_SIMULATION_ENGINE,
) -> List[SimulationStats]:
    """Run B simulations of one design, one lane after another.

    ``configs`` may differ in anything (load, seed, scenario, buffer
    depth, watchdog, fault schedule).  ``engine`` names the
    :data:`~repro.api.registry.simulation_engines` entry whose simulator
    each lane is.  Returns one :class:`SimulationStats` per config, in
    order, field-identical to
    ``build_simulator(design, config, engine=engine).run(...)``.

    ``generators`` optionally supplies the traffic generators (one per
    config, as :func:`make_traffic_generator` would build them), so callers
    can read ``offered_flits_per_cycle`` without building them twice.  The
    run consumes them.
    """
    if not configs:
        raise SimulationError("a batched run needs at least one configuration")
    validate_design(design)
    if generators is None:
        generators = [make_traffic_generator(design, config) for config in configs]
    _share_draw_streams(generators, max_cycles)
    simulator = simulation_engines.get(engine)
    return [
        simulator.lane(design, config, generator).run(
            max_cycles, drain=drain, drain_cycles=drain_cycles
        )
        for config, generator in zip(configs, generators)
    ]


simulation_engines.register(ENGINE_BATCHED, CompiledSimulator)
