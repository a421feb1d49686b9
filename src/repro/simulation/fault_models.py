"""Fault-model generators for the fault-injection axis.

Uniform-random failures are the reference model, but real failures
cluster: a power-domain brownout takes out a neighbourhood, hot links age
faster, components fail and get repaired over and over.  This module
packages the uniform draw and those correlation structures as named
generators in the :data:`repro.api.registry.fault_models` registry, each
a seeded, pure function ``(design, seed, parameters) -> EventSchedule``:

* ``uniform`` — distinct links and switches, each failing at a cycle
  drawn uniformly from a window (the reference model);
* ``spatial_burst`` — each burst picks an epicentre switch and fails
  every link with an endpoint within ``radius`` hops of it, modelling a
  spatially correlated event (power domain, clock region, thermal hot
  spot); ``restore_after`` repairs the whole burst at once;
* ``cascade`` — links fail in load order: failure draws are weighted by
  each link's offered load (summed flow bandwidths over the design's
  routes), and earlier draws get earlier failure cycles, so the hottest
  links go down first — a load-triggered cascade;
* ``mtbf`` — a per-link renewal process with exponentially distributed
  up (``mtbf``) and down (``mttr``) times over a ``horizon``, producing
  interleaved fail/restore pairs; a repair falling past the horizon is
  dropped (the link stays down for the rest of the run).

Every generator draws all randomness from one ``random.Random(seed)``
over *sorted* candidate lists, so the schedule is a pure function of
``(design, seed, parameters)`` — the experiment API threads
:attr:`repro.api.spec.RunSpec.seed` and
:attr:`~repro.api.spec.RunSpec.fault_params` into it — and every
generator validates its output against the topology
(:meth:`EventSchedule.validate_targets`) before returning it.  Each
declares its parameters' bounds with :func:`repro.domains.knobs`, so an
unknown or out-of-domain parameter raises
:class:`~repro.errors.SimulationError` naming the model before any draw.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.api.registry import fault_models
from repro.domains import NON_NEGATIVE, POSITIVE, at_least, knobs
from repro.errors import SimulationError
from repro.model.channels import Link
from repro.model.design import NocDesign
from repro.model.topology import Topology
from repro.simulation.events import EventSchedule

#: Bounds of the failure window every windowed model takes.
_WINDOW = dict(start_cycle=NON_NEGATIVE, end_cycle=NON_NEGATIVE, restore_after=at_least(1))


def _check_window(start_cycle: int, end_cycle: int) -> None:
    """The failure window's cross-field rule: it ends after it starts."""
    if end_cycle <= start_cycle:
        raise SimulationError(f"end_cycle ({end_cycle}) must exceed start_cycle ({start_cycle})")


@fault_models.register("uniform")
@knobs("fault model 'uniform'", SimulationError, link_failures=NON_NEGATIVE,
       router_failures=NON_NEGATIVE, **_WINDOW)
def uniform_model(
    design: NocDesign,
    *,
    seed: int = 0,
    link_failures: int = 1,
    router_failures: int = 0,
    start_cycle: int = 100,
    end_cycle: int = 1000,
    restore_after: Optional[int] = None,
) -> EventSchedule:
    """Uniform-random failures, the reference model.

    Picks ``link_failures`` distinct links and ``router_failures``
    distinct switches (at most what the topology has), each failing at a
    cycle drawn uniformly from ``[start_cycle, end_cycle)``; with
    ``restore_after`` set, every failure is matched by a restore that many
    cycles later.  The one way a spec asks for a seeded uniform-random
    schedule (a ``fault_schedule`` document lists explicit events only).
    """
    _check_window(start_cycle, end_cycle)
    topology = design.topology
    rng = random.Random(seed)
    schedule = EventSchedule()
    links = topology.links  # sorted
    for link in rng.sample(links, min(link_failures, len(links))):
        cycle = rng.randrange(start_cycle, end_cycle)
        schedule.fail_link(cycle, link.src, link.dst, link.index)
        if restore_after is not None:
            schedule.restore_link(cycle + restore_after, link.src, link.dst, link.index)
    switches = sorted(topology.switches)
    for switch in rng.sample(switches, min(router_failures, len(switches))):
        cycle = rng.randrange(start_cycle, end_cycle)
        schedule.fail_router(cycle, switch)
        if restore_after is not None:
            schedule.restore_router(cycle + restore_after, switch)
    return schedule.validate_targets(topology)


def _hop_distances(topology: Topology, origin: str) -> Dict[str, int]:
    """Undirected BFS hop distance from ``origin`` to every switch."""
    adjacency: Dict[str, set] = {}
    for link in topology.links:
        adjacency.setdefault(link.src, set()).add(link.dst)
        adjacency.setdefault(link.dst, set()).add(link.src)
    distances = {origin: 0}
    frontier = [origin]
    while frontier:
        next_frontier: List[str] = []
        for switch in frontier:
            for neighbor in sorted(adjacency.get(switch, ())):
                if neighbor not in distances:
                    distances[neighbor] = distances[switch] + 1
                    next_frontier.append(neighbor)
        frontier = next_frontier
    return distances


@fault_models.register("spatial_burst")
@knobs("fault model 'spatial_burst'", SimulationError, bursts=NON_NEGATIVE, radius=NON_NEGATIVE,
       **_WINDOW)
def spatial_burst_model(
    design: NocDesign,
    *,
    seed: int = 0,
    bursts: int = 1,
    radius: int = 1,
    start_cycle: int = 100,
    end_cycle: int = 1000,
    restore_after: Optional[int] = None,
) -> EventSchedule:
    """Spatially correlated bursts around randomly chosen epicentres.

    Each burst draws an epicentre switch and a failure cycle, then fails
    every directed link with at least one endpoint within ``radius``
    hops of the epicentre (``radius=0`` fails exactly the links touching
    it, the footprint of a router brownout).  With ``restore_after`` the
    whole burst is repaired that many cycles later.  Bursts may overlap;
    re-failing an already failed link is the usual no-op.
    """
    _check_window(start_cycle, end_cycle)
    topology = design.topology
    rng = random.Random(seed)
    schedule = EventSchedule()
    switches = sorted(topology.switches)
    if not switches:
        return schedule
    for epicentre in rng.sample(switches, min(bursts, len(switches))):
        cycle = rng.randrange(start_cycle, end_cycle)
        distances = _hop_distances(topology, epicentre)
        far = radius + 1
        for link in topology.links:  # sorted
            if min(distances.get(link.src, far), distances.get(link.dst, far)) > radius:
                continue
            schedule.fail_link(cycle, link.src, link.dst, link.index)
            if restore_after is not None:
                schedule.restore_link(
                    cycle + restore_after, link.src, link.dst, link.index
                )
    return schedule.validate_targets(topology)


def _weighted_draw_order(
    rng: random.Random, links: List[Link], weights: List[float], count: int
) -> List[Link]:
    """``count`` distinct links, drawn without replacement by weight.

    Zero-weight links are only eligible once every positive-weight link
    has been drawn (the draw then falls back to a uniform pick), so a
    loaded link always fails before an idle one.
    """
    pool: List[Tuple[Link, float]] = list(zip(links, weights))
    chosen: List[Link] = []
    for _ in range(min(count, len(pool))):
        total = sum(weight for _, weight in pool if weight > 0)
        if total > 0:
            threshold = rng.random() * total
            cumulative = 0.0
            index = 0
            for position, (_, weight) in enumerate(pool):
                if weight <= 0:
                    continue
                cumulative += weight
                index = position
                if threshold < cumulative:
                    break
        else:
            index = rng.randrange(len(pool))
        chosen.append(pool.pop(index)[0])
    return chosen


@fault_models.register("cascade")
@knobs("fault model 'cascade'", SimulationError, failures=NON_NEGATIVE, **_WINDOW)
def cascade_model(
    design: NocDesign,
    *,
    seed: int = 0,
    failures: int = 2,
    start_cycle: int = 100,
    end_cycle: int = 1000,
    restore_after: Optional[int] = None,
) -> EventSchedule:
    """Load-triggered cascade: the hottest links fail first.

    Each link's failure weight is its offered load — the summed bandwidth
    of every flow whose route crosses it, computed from the design's
    routes — and ``failures`` distinct links are drawn without
    replacement by that weight.  Failure cycles are drawn from the window
    and assigned in ascending order of the draw, so the first (most
    likely hottest) link fails earliest: load kills, and the survivors
    inherit the traffic.  Unloaded links only fail once every loaded one
    is down.
    """
    _check_window(start_cycle, end_cycle)
    topology = design.topology
    rng = random.Random(seed)
    schedule = EventSchedule()
    links = topology.links  # sorted
    if not links:
        return schedule
    loads = design.link_load()
    chosen = _weighted_draw_order(
        rng, links, [loads.get(link, 0.0) for link in links], failures
    )
    cycles = sorted(rng.randrange(start_cycle, end_cycle) for _ in chosen)
    for link, cycle in zip(chosen, cycles):
        schedule.fail_link(cycle, link.src, link.dst, link.index)
        if restore_after is not None:
            schedule.restore_link(cycle + restore_after, link.src, link.dst, link.index)
    return schedule.validate_targets(topology)


@fault_models.register("mtbf")
@knobs("fault model 'mtbf'", SimulationError, mtbf=POSITIVE, mttr=POSITIVE, horizon=at_least(1))
def mtbf_model(
    design: NocDesign,
    *,
    seed: int = 0,
    mtbf: float = 1500.0,
    mttr: float = 300.0,
    horizon: int = 2000,
) -> EventSchedule:
    """Per-link renewal process with exponential MTBF/MTTR.

    Every link alternates exponentially distributed up times (mean
    ``mtbf`` cycles) and down times (mean ``mttr`` cycles), emitting a
    ``fail_link`` at the end of each up period and a matching
    ``restore_link`` at the end of the following down period, for as long
    as the events land inside ``horizon``.  Per link the events strictly
    alternate fail/restore with strictly increasing cycles; a repair
    falling past the horizon is dropped, so at most the last event of a
    link is an unmatched failure (it stays down to the end of the run).
    """
    topology = design.topology
    rng = random.Random(seed)
    schedule = EventSchedule()
    for link in topology.links:  # sorted: one shared RNG stays deterministic
        clock = rng.expovariate(1.0 / mtbf)
        previous = -1
        while True:
            fail = max(int(clock), previous + 1)
            if fail >= horizon:
                break
            schedule.fail_link(fail, link.src, link.dst, link.index)
            clock = max(clock, float(fail)) + rng.expovariate(1.0 / mttr)
            restore = max(int(clock), fail + 1)
            if restore >= horizon:
                break
            schedule.restore_link(restore, link.src, link.dst, link.index)
            previous = restore
            clock = max(clock, float(restore)) + rng.expovariate(1.0 / mtbf)
    return schedule.validate_targets(topology)


# ----------------------------------------------------------------------
def build_fault_schedule(
    design: NocDesign,
    *,
    fault_model: Optional[str] = None,
    fault_params: Optional[Mapping[str, Any]] = None,
    fault_schedule: Any = None,
    seed: int = 0,
) -> Optional[EventSchedule]:
    """Resolve a spec-level fault request into one validated schedule.

    The single resolution point shared by the experiment runner and the
    CLI, which put the schedule into the
    :class:`~repro.simulation.simulator.SimulationConfig` of the run: a
    ``fault_model`` name (with ``fault_params``) generates through the
    registry, a ``fault_schedule`` document resolves through
    :meth:`EventSchedule.from_spec`, and passing both is an error — they
    are two spellings of the same axis.  A generator's own ``seed``
    parameter, when present in ``fault_params``, wins over the spec-level
    ``seed``.
    """
    if fault_model is None:
        if fault_params:
            raise SimulationError(
                "fault_params given without a fault_model to apply them to"
            )
        return EventSchedule.from_spec(fault_schedule, topology=design.topology)
    if fault_schedule is not None:
        raise SimulationError(
            "fault_model and fault_schedule are mutually exclusive ways to "
            "request fault injection; set only one"
        )
    params = {"seed": seed, **(fault_params or {})}
    return fault_models.get(fault_model)(design, **params)
