"""Deterministic shortest-path route computation.

The paper takes routes as an input ("the description of the routes"); in
practice they come from the topology-synthesis tool, which routes every flow
on a weighted shortest path.  This module provides that routing function for
our synthesis substrate and for user-built topologies.

Routes are computed per flow with Dijkstra's algorithm over the switch
graph.  Edge weights can be pure hop count, static link weights or
congestion-aware weights (previously routed bandwidth inflates a link's
cost), all with deterministic tie-breaking so repeated runs produce
identical designs.

Two interchangeable engines implement the per-design routing loop, looked up
by name in the pluggable :data:`repro.api.registry.routing_engines` registry
(new engines register with a decorator and become valid ``engine=`` values
everywhere, including ``RunSpec.routing_engine`` and the CLI):

* ``engine="indexed"`` (default) — the indexed engine from
  :mod:`repro.perf.route_engine`: int-relabelled switch graph, per-node
  label Dijkstra and incremental congestion reweighting.  Polynomial on
  every topology and proven route-identical to the legacy search.
* ``engine="legacy"`` — the seed behaviour: best-first search carrying full
  path tuples in the heap.  Exponential on regular grids (every equal-cost
  path is expanded) but kept as the executable reference the ``cross_check``
  debug flag compares against.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.api.registry import routing_engines
from repro.errors import RouteError
from repro.model.channels import Channel, Link
from repro.model.design import NocDesign
from repro.model.routes import Route, RouteSet
from repro.model.topology import Topology
from repro.perf.route_engine import IndexedRouter, SwitchGraph

WEIGHT_HOPS = "hops"
WEIGHT_CONGESTION = "congestion"
_WEIGHT_MODES = (WEIGHT_HOPS, WEIGHT_CONGESTION)
#: Strength of the congestion term when callers do not choose one: the
#: synthesis routing pass and fault recovery's re-routing both use it.
DEFAULT_CONGESTION_FACTOR = 0.5

ENGINE_INDEXED = "indexed"
ENGINE_LEGACY = "legacy"
#: Engine used when callers do not choose one explicitly.
DEFAULT_ROUTING_ENGINE = ENGINE_INDEXED


def _legacy_dijkstra(
    topology: Topology,
    source: str,
    target: str,
    link_weights: Dict[Link, float],
) -> Optional[List[Link]]:
    """Cheapest link path from ``source`` to ``target`` (None if unreachable).

    Ties are broken by the lexicographic order of the switch sequence, which
    makes the routing function deterministic regardless of dict ordering.

    This is the seed implementation, kept verbatim as the reference the
    indexed engine is cross-checked against.  Every heap entry carries the
    full path, so equal-cost paths are all expanded — exponential on regular
    grids; use the indexed engine for real workloads.
    """
    if source == target:
        return []
    # priority queue entries: (cost, path_switch_names, current, links)
    heap: List[Tuple[float, Tuple[str, ...], str, Tuple[Link, ...]]] = [
        (0.0, (source,), source, ())
    ]
    best: Dict[str, float] = {}
    while heap:
        cost, names, current, links = heapq.heappop(heap)
        if current == target:
            return list(links)
        if current in best and best[current] < cost - 1e-12:
            continue
        best[current] = min(best.get(current, float("inf")), cost)
        for link in topology.out_links(current):
            step = link_weights.get(link, 1.0)
            next_cost = cost + step
            if link.dst in best and best[link.dst] < next_cost - 1e-12:
                continue
            heapq.heappush(
                heap,
                (next_cost, names + (link.dst,), link.dst, links + (link,)),
            )
    return None


def _check_engine(engine: str) -> str:
    """Validate an engine name against the registry (RouteError on unknown)."""
    if engine not in routing_engines:
        raise RouteError(
            f"unknown routing engine {engine!r}; "
            f"available: {', '.join(routing_engines.names())}"
        )
    return engine


def shortest_route(
    topology: Topology,
    source_switch: str,
    destination_switch: str,
    *,
    link_weights: Optional[Dict[Link, float]] = None,
    engine: str = DEFAULT_ROUTING_ENGINE,
) -> Route:
    """Shortest route between two switches (VC 0 on every hop).

    Raises :class:`~repro.errors.RouteError` when no path exists or when the
    two switches are identical (a same-switch flow needs no network route).

    ``engine`` selects the search implementation and accepts only the two
    built-ins — a third-party registry entry defines a *design-level*
    routing loop (see :func:`compute_routes`), not a single-pair search, so
    silently serving it with the indexed search would misrepresent it.
    Both built-ins return identical routes.  Non-positive link weights are
    outside the indexed engine's equivalence argument, so such inputs
    transparently fall back to the legacy search.
    """
    if engine not in (ENGINE_INDEXED, ENGINE_LEGACY):
        raise RouteError(
            f"unknown single-pair routing engine {engine!r}; shortest_route "
            f"supports the built-ins {ENGINE_INDEXED!r} and {ENGINE_LEGACY!r} "
            "(registered third-party engines operate on whole designs via "
            "compute_routes)"
        )
    if source_switch == destination_switch:
        raise RouteError(
            f"source and destination switch are both {source_switch!r}; "
            "no network route is needed"
        )
    weights = link_weights or {}
    use_indexed = engine != ENGINE_LEGACY and all(
        value > 0 for value in weights.values()
    )
    if use_indexed:
        graph = SwitchGraph(topology)
        graph.set_weights(weights)
        # Probe the source eagerly so an unknown switch raises the same
        # TopologyError the legacy search gets from topology.out_links().
        source_id = graph.switch_id(source_switch)
        if destination_switch in graph.id_of:
            path = graph.shortest_path(source_id, graph.id_of[destination_switch])
            links = None if path is None else [graph.links[lid] for lid in path]
        else:
            links = None
    else:
        links = _legacy_dijkstra(topology, source_switch, destination_switch, weights)
    if links is None:
        raise RouteError(
            f"no path from {source_switch!r} to {destination_switch!r} in topology "
            f"{topology.name!r}"
        )
    return Route([Channel(link, 0) for link in links])


# ----------------------------------------------------------------------
# Routing-engine registry entries.  An engine routes every flow of a design
# under the given weight mode and returns the design's route set;
# compute_routes() validates arguments and dispatches here.
# ----------------------------------------------------------------------

@routing_engines.register(ENGINE_LEGACY)
def _legacy_compute_routes(
    design: NocDesign,
    *,
    weight_mode: str,
    congestion_factor: float,
    overwrite: bool,
) -> RouteSet:
    """Seed engine: full weight dict + path-tuple Dijkstra per flow."""
    topology = design.topology
    routed_bandwidth: Dict[Link, float] = {link: 0.0 for link in topology.links}
    total_bandwidth = max(design.traffic.total_bandwidth, 1e-9)

    flows = sorted(design.traffic.flows, key=lambda f: (-f.bandwidth, f.name))
    for flow in flows:
        if not overwrite and design.routes.has_route(flow.name):
            for channel in design.routes.route(flow.name):
                routed_bandwidth[channel.link] += flow.bandwidth
            continue
        src_switch = design.switch_of(flow.src)
        dst_switch = design.switch_of(flow.dst)
        if src_switch == dst_switch:
            if design.routes.has_route(flow.name):
                design.routes.remove_route(flow.name)
            continue
        if weight_mode == WEIGHT_HOPS or congestion_factor == 0:
            weights = {link: 1.0 for link in topology.links}
        else:
            weights = {
                link: 1.0 + congestion_factor * routed_bandwidth[link] / total_bandwidth
                for link in topology.links
            }
        route = shortest_route(
            topology, src_switch, dst_switch, link_weights=weights, engine=ENGINE_LEGACY
        )
        design.routes.set_route(flow.name, route)
        for channel in route:
            routed_bandwidth[channel.link] += flow.bandwidth
    return design.routes


@routing_engines.register(ENGINE_INDEXED)
def _indexed_compute_routes(
    design: NocDesign,
    *,
    weight_mode: str,
    congestion_factor: float,
    overwrite: bool,
) -> RouteSet:
    """Default engine: batched int-indexed graph + incremental reweighting.

    One int-relabelled :class:`SwitchGraph` serves every flow of the call.
    """
    if congestion_factor < 0:
        # A negative factor can drive link weights to zero or below, where
        # the per-node label argument (and Dijkstra itself) is unsound —
        # serve such inputs with the reference search, like shortest_route
        # does for non-positive explicit weights.
        return _legacy_compute_routes(
            design,
            weight_mode=weight_mode,
            congestion_factor=congestion_factor,
            overwrite=overwrite,
        )
    congestion = weight_mode == WEIGHT_CONGESTION and congestion_factor != 0
    router = IndexedRouter(
        design.topology,
        congestion_factor=congestion_factor if congestion else 0.0,
        total_bandwidth=max(design.traffic.total_bandwidth, 1e-9),
    )
    flows = sorted(design.traffic.flows, key=lambda f: (-f.bandwidth, f.name))
    for flow in flows:
        if not overwrite and design.routes.has_route(flow.name):
            router.commit(design.routes.route(flow.name), flow.bandwidth)
            continue
        src_switch = design.switch_of(flow.src)
        dst_switch = design.switch_of(flow.dst)
        if src_switch == dst_switch:
            if design.routes.has_route(flow.name):
                design.routes.remove_route(flow.name)
            continue
        route = router.route(src_switch, dst_switch)
        design.routes.set_route(flow.name, route)
        router.commit(route, flow.bandwidth)
    return design.routes


def compute_routes(
    design: NocDesign,
    *,
    weight_mode: str = WEIGHT_CONGESTION,
    congestion_factor: float = DEFAULT_CONGESTION_FACTOR,
    overwrite: bool = True,
    engine: Optional[str] = None,
    cross_check: bool = False,
) -> RouteSet:
    """Compute routes for every flow of a design and store them on it.

    Parameters
    ----------
    weight_mode:
        ``"hops"`` routes every flow on a minimum-hop path; ``"congestion"``
        (default) additionally inflates the weight of links proportionally
        to the bandwidth already routed over them, spreading heavy flows.
    congestion_factor:
        Strength of the congestion term (0 disables it even in congestion
        mode).
    overwrite:
        When false, flows that already have a route keep it.
    engine:
        Routing engine name from :data:`repro.api.registry.routing_engines`
        (``None`` = :data:`DEFAULT_ROUTING_ENGINE`).
    cross_check:
        Debug flag: additionally run the *other* built-in engine on a
        scratch copy and raise :class:`~repro.errors.RouteError` unless both
        produced identical route sets (expensive — tests and debugging
        only).

    Flows whose endpoints map to the same switch get no route (they never
    enter the network).  Returns the design's route set.
    """
    if weight_mode not in _WEIGHT_MODES:
        raise RouteError(f"unknown weight mode {weight_mode!r}")
    engine_name = _check_engine(engine or DEFAULT_ROUTING_ENGINE)
    expected: Optional[RouteSet] = None
    if cross_check:
        reference = ENGINE_LEGACY if engine_name != ENGINE_LEGACY else ENGINE_INDEXED
        scratch = design.copy()
        expected = routing_engines.get(reference)(
            scratch,
            weight_mode=weight_mode,
            congestion_factor=congestion_factor,
            overwrite=overwrite,
        )
    routes = routing_engines.get(engine_name)(
        design,
        weight_mode=weight_mode,
        congestion_factor=congestion_factor,
        overwrite=overwrite,
    )
    if expected is not None and routes != expected:
        differing = sorted(
            name
            for name in set(routes.flow_names) | set(expected.flow_names)
            if not (
                routes.has_route(name)
                and expected.has_route(name)
                and routes.route(name) == expected.route(name)
            )
        )
        shown = ", ".join(differing[:5])
        extra = "" if len(differing) <= 5 else f" (+{len(differing) - 5} more)"
        raise RouteError(
            f"routing engine {engine_name!r} diverged from the reference on "
            f"{len(differing)} flow(s): {shown}{extra}"
        )
    return routes


def reroute_unrouted(design: NocDesign) -> None:
    """Re-route every unrouted flow against the design's current topology.

    The repair step fault recovery's ``removal`` and ``reroute`` policies
    share (:mod:`repro.simulation.recovery`).  Mirrors the synthesis
    routing pass: flows in descending-bandwidth order, surviving routes
    committed first so the congestion weights the re-routed flows see
    reflect the traffic that is actually staying put.  A flow with no
    remaining path stays unrouted (its future packets are lost at
    injection).
    """
    routes = design.routes
    router = IndexedRouter(
        design.topology,
        congestion_factor=DEFAULT_CONGESTION_FACTOR,
        total_bandwidth=max(design.traffic.total_bandwidth, 1e-9),
    )
    flows = sorted(design.traffic.flows, key=lambda f: (-f.bandwidth, f.name))
    unrouted = []
    for flow in flows:
        if routes.has_route(flow.name):
            router.commit(routes.route(flow.name), flow.bandwidth)
        elif design.switch_of(flow.src) != design.switch_of(flow.dst):
            unrouted.append(flow)
    for flow in unrouted:
        try:
            route = router.route(
                design.switch_of(flow.src), design.switch_of(flow.dst)
            )
        except RouteError:
            continue
        routes.set_route(flow.name, route)
        router.commit(route, flow.bandwidth)
