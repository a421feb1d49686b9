"""Deterministic shortest-path route computation.

The paper takes routes as an input ("the description of the routes"); in
practice they come from the topology-synthesis tool, which routes every flow
on a weighted shortest path.  This module provides that routing function for
our synthesis substrate and for user-built topologies.

Routes are computed per flow with Dijkstra's algorithm over the switch
graph.  A link's weight is ``1 + congestion_factor * routed / total``: the
bandwidth already routed over it inflates its cost, and
``congestion_factor=0`` gives pure hop count (what the topology families
route on).  Ties break deterministically, so repeated runs produce
identical designs.  Dijkstra's method needs non-negative weights and the
indexed engine's tie-break argument positive ones, so a negative factor
and a non-positive explicit link weight raise
:class:`~repro.errors.RouteError`; so does a factor too large for a path
cost to stay exact (see :func:`compute_routes`).

:func:`route_flows` is the one loop that routes every flow of a design; the
up*/down* and XY routings of :mod:`repro.routing.turns` run it too.  Two
interchangeable engines drive it, looked up by name in the pluggable
:data:`repro.api.registry.routing_engines` registry
(new engines register with a decorator and become valid ``engine=`` values
everywhere, including ``RunSpec.routing_engine`` and the CLI):

* ``engine="indexed"`` (default) — the indexed engine from
  :mod:`repro.perf.route_engine`: int-relabelled switch graph, per-node
  label Dijkstra and incremental congestion reweighting.  Polynomial on
  every topology and proven route-identical to the legacy search.
  :func:`shortest_route` is its single-pair form.
* ``engine="legacy"`` — the seed behaviour: best-first search carrying full
  path tuples in the heap.  Exponential on regular grids (every equal-cost
  path is expanded) but kept as the executable reference the ``cross_check``
  debug flag compares against.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.api.registry import routing_engines
from repro.errors import RouteError
from repro.model.channels import Channel, Link
from repro.model.design import NocDesign
from repro.model.routes import Route, RouteSet
from repro.model.topology import Topology
from repro.model.traffic import Flow
from repro.perf.route_engine import IndexedRouter, SwitchGraph

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


def shortest_route(
    topology: Topology,
    source_switch: str,
    destination_switch: str,
    *,
    link_weights: Optional[Dict[Link, float]] = None,
) -> Route:
    """Shortest route between two switches (VC 0 on every hop).

    Runs the indexed search; links absent from ``link_weights`` weigh 1.
    Raises :class:`~repro.errors.RouteError` when a weight is not positive,
    when no path exists or when the two switches are identical (a
    same-switch flow needs no network route).
    """
    weights = link_weights or {}
    for link, value in weights.items():
        if not value > 0:
            raise RouteError(
                f"link weights must be positive; link {link.name} has {value!r}"
            )
    if source_switch == destination_switch:
        raise RouteError(
            f"source and destination switch are both {source_switch!r}; "
            "no network route is needed"
        )
    graph = SwitchGraph(topology)
    graph.set_weights(weights)
    # Probe the source eagerly so an unknown switch raises TopologyError.
    source_id = graph.switch_id(source_switch)
    path = None
    if destination_switch in graph.id_of:
        path = graph.shortest_path(source_id, graph.id_of[destination_switch])
    if path is None:
        raise RouteError(
            f"no path from {source_switch!r} to {destination_switch!r} in topology "
            f"{topology.name!r}"
        )
    return Route([Channel(graph.links[lid], 0) for lid in path])


def route_flows(
    design: NocDesign,
    flows: Iterable[Flow],
    route: Callable[[str, str], Route],
    commit: Optional[Callable[[Route, float], None]] = None,
) -> RouteSet:
    """Route ``flows`` in the given order and store each route on the design.

    ``route(source switch, destination switch)`` returns a flow's route and
    ``commit(route, bandwidth)``, when given, accounts it before the next
    flow is routed.  A flow between cores on one switch gets no route (it
    never enters the network), and any route it had is removed.  Returns
    the design's route set, whose insertion order is the order of
    ``flows``.
    """
    routes = design.routes
    for flow in flows:
        src_switch = design.switch_of(flow.src)
        dst_switch = design.switch_of(flow.dst)
        if src_switch == dst_switch:
            if routes.has_route(flow.name):
                routes.remove_route(flow.name)
            continue
        flow_route = route(src_switch, dst_switch)
        routes.set_route(flow.name, flow_route)
        if commit is not None:
            commit(flow_route, flow.bandwidth)
    return routes


def _by_bandwidth(design: NocDesign) -> List[Flow]:
    """The design's flows in descending-bandwidth order, ties by name."""
    return sorted(design.traffic.flows, key=lambda f: (-f.bandwidth, f.name))


# ----------------------------------------------------------------------
# Routing-engine registry entries.  An engine routes every flow of a design
# in descending-bandwidth order, replacing any route the flow had, and
# returns the design's route set; compute_routes() validates arguments and
# dispatches here.
# ----------------------------------------------------------------------

@routing_engines.register(ENGINE_LEGACY)
def _legacy_compute_routes(design: NocDesign, *, congestion_factor: float) -> RouteSet:
    """Seed engine: full weight dict + path-tuple Dijkstra per flow."""
    topology = design.topology
    routed_bandwidth: Dict[Link, float] = {link: 0.0 for link in topology.links}
    total_bandwidth = max(design.traffic.total_bandwidth, 1e-9)

    def route(src_switch: str, dst_switch: str) -> Route:
        weights = {
            link: 1.0 + congestion_factor * routed_bandwidth[link] / total_bandwidth
            for link in topology.links
        }
        links = _legacy_dijkstra(topology, src_switch, dst_switch, weights)
        if links is None:
            raise RouteError(
                f"no path from {src_switch!r} to {dst_switch!r} in topology "
                f"{topology.name!r}"
            )
        return Route([Channel(link, 0) for link in links])

    def commit(flow_route: Route, bandwidth: float) -> None:
        for link in flow_route.links:
            routed_bandwidth[link] += bandwidth

    return route_flows(design, _by_bandwidth(design), route, commit)


@routing_engines.register(ENGINE_INDEXED)
def _indexed_compute_routes(design: NocDesign, *, congestion_factor: float) -> RouteSet:
    """Default engine: batched int-indexed graph + incremental reweighting.

    One int-relabelled :class:`SwitchGraph` serves every flow of the call.
    """
    router = IndexedRouter(
        design.topology,
        congestion_factor=congestion_factor,
        total_bandwidth=max(design.traffic.total_bandwidth, 1e-9),
    )
    return route_flows(design, _by_bandwidth(design), router.route, router.commit)


def compute_routes(
    design: NocDesign,
    *,
    congestion_factor: float = DEFAULT_CONGESTION_FACTOR,
    engine: str = DEFAULT_ROUTING_ENGINE,
    cross_check: bool = False,
) -> RouteSet:
    """Compute routes for every flow of a design and store them on it.

    Parameters
    ----------
    congestion_factor:
        Strength of the congestion term: a link's weight is ``1 + factor *
        routed / total``, where ``routed`` is the bandwidth of the flows
        routed over it so far, so heavy flows spread out.  ``0`` routes
        every flow on a minimum-hop path.  A negative factor, or one with
        ``(1 + factor) * link count >= 2**53`` (NaN and inf included),
        raises :class:`~repro.errors.RouteError`.
    engine:
        Routing engine name from :data:`repro.api.registry.routing_engines`.
    cross_check:
        Debug flag: additionally run the *other* built-in engine on a
        scratch copy and raise :class:`~repro.errors.RouteError` unless both
        produced identical route sets (expensive — tests and debugging
        only).

    Every flow is routed afresh.  Flows whose endpoints map to the same
    switch get no route (they never enter the network).  Returns the
    design's route set.
    """
    # Below 2**53 a path cost (at most links x (1 + factor)) grows with every
    # link it adds; past it the legacy search can loop.
    links = max(design.topology.link_count, 1)
    if not (congestion_factor >= 0 and (1 + congestion_factor) * links < 2**53):
        raise RouteError(
            f"congestion_factor must be non-negative, and (1 + congestion_factor) "
            f"* {links} links must stay below 2**53; got {congestion_factor!r}"
        )
    if engine not in routing_engines:
        raise RouteError(
            f"unknown routing engine {engine!r}; "
            f"available: {', '.join(routing_engines.names())}"
        )
    expected: Optional[RouteSet] = None
    if cross_check:
        reference = ENGINE_LEGACY if engine != ENGINE_LEGACY else ENGINE_INDEXED
        expected = routing_engines.get(reference)(
            design.copy(), congestion_factor=congestion_factor
        )
    routes = routing_engines.get(engine)(design, congestion_factor=congestion_factor)
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
            f"routing engine {engine!r} diverged from the reference on "
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
    unrouted = []
    for flow in _by_bandwidth(design):
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
