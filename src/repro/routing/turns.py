"""Turn-prohibition utilities: up*/down* routing and XY routing.

These are the classical deadlock-*avoidance* techniques the related-work
section of the paper contrasts with ([17], [18] and mesh turn models): they
restrict the routing function so the CDG can never contain a cycle, at the
price of longer routes or of only being applicable during topology
construction.  The library implements them for three reasons:

* the synthesis substrate can optionally emit up*/down* routes, reproducing
  the observation (Section 5) that many application-specific topologies are
  deadlock free even without restrictions;
* the topology families can route with them (``routing: "updown"``);
* they exercise the CDG machinery from a different angle in the tests
  (up*/down* and XY route sets must always yield acyclic CDGs).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Tuple

from repro.errors import RouteError
from repro.model.channels import Channel, Link
from repro.model.design import NocDesign
from repro.model.routes import Route, RouteSet
from repro.model.topology import Topology
from repro.perf.route_engine import SwitchGraph


def bfs_levels(topology: Topology, root: str) -> Dict[str, int]:
    """Breadth-first levels of every switch from ``root`` (undirected)."""
    if not topology.has_switch(root):
        raise RouteError(f"unknown root switch {root!r}")
    levels = {root: 0}
    queue = deque([root])
    while queue:
        node = queue.popleft()
        neighbors = set(topology.neighbors(node))
        neighbors.update(link.src for link in topology.in_links(node))
        for neighbor in sorted(neighbors):
            if neighbor not in levels:
                levels[neighbor] = levels[node] + 1
                queue.append(neighbor)
    return levels


def updown_orientation(topology: Topology, root: Optional[str] = None) -> Dict[Link, str]:
    """Classify every directed link as ``"up"`` (towards the root) or
    ``"down"`` (away from the root) for up*/down* routing.

    Ties (links between switches on the same BFS level) are broken by switch
    name so the orientation is acyclic and deterministic.
    """
    if root is None:
        root = min(topology.switches)
    levels = bfs_levels(topology, root)
    orientation: Dict[Link, str] = {}
    for link in topology.links:
        src_key = (levels.get(link.src, len(levels)), link.src)
        dst_key = (levels.get(link.dst, len(levels)), link.dst)
        orientation[link] = "up" if dst_key < src_key else "down"
    return orientation


def _updown_up_flags(graph: SwitchGraph, orientation: Dict[Link, str]) -> List[bool]:
    """Per-link-id "is an up link" flags for a :class:`SwitchGraph`."""
    return [orientation[link] == "up" for link in graph.links]


def _updown_search(
    graph: SwitchGraph, up: List[bool], source_id: int, target_id: int
) -> Optional[List[int]]:
    """BFS for the first legal up*/down* path, over the indexed graph.

    States are ``(switch id, phase)`` where phase 0 = still allowed to go
    up, phase 1 = already went down (only down links allowed from now on).
    Links are visited in sorted link order — identical traversal, and thus
    identical routes, to the original per-flow name-based BFS.
    """
    start = source_id * 2
    parents: Dict[int, Tuple[int, int]] = {}
    seen = {start}
    queue = deque([start])
    out = graph.out
    goal: Optional[int] = None
    while queue and goal is None:
        state = queue.popleft()
        node, phase = state >> 1, state & 1
        for dst, lid in out[node]:
            is_up = up[lid]
            if phase == 1 and is_up:
                continue
            next_state = dst * 2 + (phase if is_up else 1)
            if next_state in seen:
                continue
            seen.add(next_state)
            parents[next_state] = (state, lid)
            if dst == target_id:
                goal = next_state
                break
            queue.append(next_state)
    if goal is None:
        return None
    links: List[int] = []
    state = goal
    while state != start:
        state, lid = parents[state]
        links.append(lid)
    links.reverse()
    return links


def _updown_route_between(
    graph: SwitchGraph, up: List[bool], source_switch: str, destination_switch: str
) -> Route:
    """Search + Route construction shared by the single-pair and per-design
    entry points.  An unknown *destination* (or an exhausted search) raises
    the documented RouteError; an unknown *source* raises TopologyError,
    matching the original per-flow BFS which touched the source's adjacency
    first and only ever discovered the destination by reaching it.
    """
    source_id = graph.switch_id(source_switch)
    path = (
        _updown_search(graph, up, source_id, graph.id_of[destination_switch])
        if destination_switch in graph.id_of
        else None
    )
    if path is None:
        raise RouteError(
            f"no up*/down* route from {source_switch!r} to {destination_switch!r}"
        )
    return Route([Channel(graph.links[lid], 0) for lid in path])


def updown_route(
    topology: Topology,
    source_switch: str,
    destination_switch: str,
    *,
    root: Optional[str] = None,
) -> Route:
    """Shortest route that never takes a down->up turn (up*/down* routing).

    Raises :class:`~repro.errors.RouteError` when no legal path exists —
    up*/down* needs every "up" direction to eventually reach a common
    ancestor, which holds whenever the topology is connected and links are
    bidirectional, but can fail on arbitrary unidirectional topologies; this
    limitation is exactly why the paper's method is more general.
    """
    if source_switch == destination_switch:
        raise RouteError("source and destination switch coincide")
    graph = SwitchGraph(topology)
    up = _updown_up_flags(graph, updown_orientation(topology, root))
    return _updown_route_between(graph, up, source_switch, destination_switch)


def compute_updown_routes(design: NocDesign, *, root: Optional[str] = None) -> RouteSet:
    """Route every flow of a design with up*/down* routing (stores + returns).

    The indexed :class:`SwitchGraph`, the BFS-level orientation and its
    per-link up flags are built once per call and shared by every flow.
    """
    graph = SwitchGraph(design.topology)
    up = _updown_up_flags(graph, updown_orientation(design.topology, root))
    for flow in design.traffic.flows:
        src_switch = design.switch_of(flow.src)
        dst_switch = design.switch_of(flow.dst)
        if src_switch == dst_switch:
            if design.routes.has_route(flow.name):
                design.routes.remove_route(flow.name)
            continue
        design.routes.set_route(
            flow.name, _updown_route_between(graph, up, src_switch, dst_switch)
        )
    return design.routes


def mesh_coordinates(switch: str) -> Tuple[int, int]:
    """Parse the ``(x, y)`` encoded in a mesh switch name ``sw_x_y``."""
    parts = switch.split("_")
    if len(parts) != 3 or parts[0] != "sw":
        raise RouteError(f"switch {switch!r} is not a mesh switch (expected 'sw_x_y')")
    return int(parts[1]), int(parts[2])


def xy_route(topology: Topology, source_switch: str, destination_switch: str) -> Route:
    """Dimension-ordered (X then Y) route on a mesh of the ``mesh`` topology
    family (switches named ``sw_x_y``).

    XY routing forbids the four "illegal" turns of the turn model and is
    therefore deadlock free on meshes; it is used in tests as a known-good
    acyclic-CDG routing function.
    """
    if source_switch == destination_switch:
        raise RouteError("source and destination switch coincide")
    x0, y0 = mesh_coordinates(source_switch)
    x1, y1 = mesh_coordinates(destination_switch)
    links: List[Link] = []
    x, y = x0, y0
    while x != x1:
        step = 1 if x1 > x else -1
        next_switch = f"sw_{x + step}_{y}"
        link = topology.find_link(f"sw_{x}_{y}", next_switch)
        if link is None:
            raise RouteError(f"mesh link {f'sw_{x}_{y}'}->{next_switch} missing")
        links.append(link)
        x += step
    while y != y1:
        step = 1 if y1 > y else -1
        next_switch = f"sw_{x}_{y + step}"
        link = topology.find_link(f"sw_{x}_{y}", next_switch)
        if link is None:
            raise RouteError(f"mesh link {f'sw_{x}_{y}'}->{next_switch} missing")
        links.append(link)
        y += step
    return Route([Channel(link, 0) for link in links])


def compute_xy_routes(design: NocDesign) -> RouteSet:
    """Route every flow of a mesh design with XY routing (stores + returns)."""
    for flow in design.traffic.flows:
        src_switch = design.switch_of(flow.src)
        dst_switch = design.switch_of(flow.dst)
        if src_switch == dst_switch:
            if design.routes.has_route(flow.name):
                design.routes.remove_route(flow.name)
            continue
        design.routes.set_route(flow.name, xy_route(design.topology, src_switch, dst_switch))
    return design.routes
