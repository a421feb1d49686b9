"""Breaking a CDG cycle by duplicating channels and re-routing flows.

This implements ``BreakCycleForward`` and ``BreakCycleBackward`` from
Section 4.1 of the paper as one :func:`break_cycle` with a direction
(``FORWARD`` or ``BACKWARD``).  Breaking the dependency ``d(cm, cm+1)`` of a
cycle works on the real design, not just on the CDG:

1. every flow whose route uses ``cm`` immediately followed by ``cm+1`` is
   identified (these flows *create* the dependency);
2. for each such flow the cycle channels that must be duplicated are
   collected — from the flow's entry into the cycle up to ``cm`` for a
   forward break, from ``cm+1`` down to the flow's exit for a backward
   break (duplicating only the channel adjacent to the removed edge is not
   sufficient in general, see Figure 7 of the paper);
3. one new virtual channel is added to the physical link of every channel
   that needs duplication (flows share the duplicates, which is why the
   combined cost is the column maximum of the cost table);
4. the affected flows are re-routed onto the duplicated channels.

After the re-routing the dependency ``cm -> cm+1`` no longer exists in the
CDG rebuilt from the updated routes, because every flow that created it now
reaches ``cm+1`` from the duplicate ``cm'`` instead.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.cost import BACKWARD, FORWARD
from repro.core.cycles import cycle_edges
from repro.core.report import BreakAction
from repro.errors import RemovalError
from repro.model.channels import Channel
from repro.model.design import NocDesign
from repro.model.routes import Route

#: Duplicate channels as extra VCs on the same physical link (the paper's
#: default) or as parallel physical links (for architectures without VCs).
RESOURCE_VIRTUAL = "virtual"
RESOURCE_PHYSICAL = "physical"
_RESOURCE_MODES = (RESOURCE_VIRTUAL, RESOURCE_PHYSICAL)


def _find_edge_occurrence(route: Route, edge: Tuple[Channel, Channel]) -> int:
    """Index ``i`` such that ``(route[i], route[i+1]) == edge``, or -1."""
    for i, pair in enumerate(route.dependencies()):
        if pair == edge:
            return i
    return -1


def _positions_to_duplicate(
    route: Route,
    cycle_set: set,
    edge: Tuple[Channel, Channel],
    direction: str,
) -> List[int]:
    """Route positions whose channel must be duplicated for this flow."""
    occurrence = _find_edge_occurrence(route, edge)
    if occurrence < 0:
        return []
    if direction == FORWARD:
        candidate_range = range(0, occurrence + 1)
    else:
        candidate_range = range(occurrence + 1, len(route))
    return [p for p in candidate_range if route[p] in cycle_set]


def flows_creating_dependency(
    design: NocDesign, edge: Tuple[Channel, Channel]
) -> List[str]:
    """Names of flows whose route uses ``edge[0]`` immediately before ``edge[1]``."""
    names = []
    for flow_name, route in design.routes.items():
        if _find_edge_occurrence(route, edge) >= 0:
            names.append(flow_name)
    return names


def _duplicate_channel(design: NocDesign, original: Channel, resource_mode: str) -> Channel:
    """Create the duplicate of ``original`` according to the resource mode."""
    if resource_mode == RESOURCE_VIRTUAL:
        return design.topology.add_virtual_channel(original.link)
    new_link = design.topology.add_parallel_link(original.link)
    return Channel(new_link, 0)


def break_cycle(
    design: NocDesign,
    cycle: Sequence[Channel],
    position: int,
    direction: str,
    *,
    iteration: int = 0,
    cost_table=None,
    resource_mode: str = RESOURCE_VIRTUAL,
    index=None,
) -> BreakAction:
    """Break the dependency at ``position`` of ``cycle`` in ``direction``.

    The design is modified in place (topology gains VCs — or parallel
    physical links with ``resource_mode="physical"`` — and affected routes
    are rewritten).  Returns the :class:`~repro.core.report.BreakAction`
    describing what happened.

    ``index`` (a :class:`~repro.perf.cdg_index.CDGIndex` of ``design``'s
    current routes) is an optional accelerator: the affected flows are then
    read from its per-edge flow sets instead of scanning every route, and
    every duplicated channel is interned in it when it is created.  The
    produced action is identical either way (the indexed flow list equals
    the scan, in the same sorted order).
    """
    if direction not in (FORWARD, BACKWARD):
        raise RemovalError(f"unknown break direction {direction!r}")
    if resource_mode not in _RESOURCE_MODES:
        raise RemovalError(f"unknown resource mode {resource_mode!r}")
    cycle = list(cycle)
    edges = cycle_edges(cycle)
    if position < 0 or position >= len(edges):
        raise RemovalError(
            f"edge position {position} outside cycle of length {len(cycle)}"
        )
    edge = edges[position]
    cycle_set = set(cycle)

    if index is not None:
        affected = index.flows_creating(edge)
    else:
        affected = flows_creating_dependency(design, edge)
    if not affected:
        raise RemovalError(
            f"no flow creates the dependency {edge[0].name} -> {edge[1].name}; "
            "the cycle does not match the current routes"
        )

    duplicates: Dict[Channel, Channel] = {}
    rerouted: List[str] = []
    previous_routes: Dict[str, Route] = {}
    for flow_name in affected:
        route = design.routes.route(flow_name)
        previous_routes[flow_name] = route
        positions = _positions_to_duplicate(route, cycle_set, edge, direction)
        if not positions:
            # Cannot happen for a genuine dependency: the edge's own channel
            # (tail for forward, head for backward) is always in the cycle,
            # so an empty set means the cycle and the routes disagree.
            raise RemovalError(
                f"flow {flow_name!r} creates {edge[0].name} -> {edge[1].name} but no "
                f"channel was selected for duplication ({direction} break)"
            )
        replacement: Dict[int, Channel] = {}
        for p in positions:
            original = route[p]
            if original not in duplicates:
                duplicate = _duplicate_channel(design, original, resource_mode)
                duplicates[original] = duplicate
                if index is not None:
                    index.intern(duplicate)
            replacement[p] = duplicates[original]
        design.routes.set_route(flow_name, route.replace_at_positions(replacement))
        rerouted.append(flow_name)

    if not duplicates:
        raise RemovalError(
            f"breaking {edge[0].name} -> {edge[1].name} in the {direction} direction "
            "required no channel duplication; this indicates an inconsistent cost table"
        )

    return BreakAction(
        iteration=iteration,
        direction=direction,
        cycle=tuple(cycle),
        broken_edge=edge,
        cost=len(duplicates),
        flows_rerouted=tuple(sorted(rerouted)),
        channels_added=duplicates,
        cost_table=cost_table,
        previous_routes=previous_routes,
    )
