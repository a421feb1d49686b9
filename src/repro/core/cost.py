"""Cost tables for choosing which dependency of a cycle to break.

This module implements Algorithm 2 of the paper (``FindDepToBreakForward``)
and its backward counterpart.  For a cycle ``c1 .. cj`` of the CDG the cost
of removing the dependency ``d(cm, cm+1)`` caused by a flow is the number of
cycle channels that have to be duplicated so that re-routing the flow onto
the duplicates actually removes the dependency *without recreating the cycle
through the new vertices* (Figure 7 of the paper shows why duplicating a
single vertex is not always enough):

* **forward** break — duplicate the cycle channels the flow traverses from
  where it enters the cycle up to (and including) ``cm``;
* **backward** break — duplicate the cycle channels the flow traverses from
  ``cm+1`` down to where it exits the cycle.

The per-flow costs are combined with a column-wise maximum (the channels to
duplicate for different flows overlap and can share the newly added VCs) and
the dependency with the smallest combined cost is selected, exactly as in
Table 1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.cdg import ChannelDependencyGraph
from repro.core.cycles import cycle_edges
from repro.errors import RemovalError
from repro.model.channels import Channel
from repro.model.routes import Route, RouteSet

FORWARD = "forward"
BACKWARD = "backward"
_DIRECTIONS = (FORWARD, BACKWARD)


@dataclass
class CostTable:
    """The cost table of Algorithm 2 (e.g. Table 1 of the paper).

    Attributes
    ----------
    direction:
        ``"forward"`` or ``"backward"``.
    cycle:
        The cycle channels in order.
    edges:
        The dependency edges of the cycle, ``edges[m] == (cycle[m],
        cycle[(m+1) % len(cycle)])``.
    flow_names:
        Rows of the table: flows that create at least one dependency of the
        cycle.
    entries:
        ``entries[flow][m]`` — cost contributed by ``flow`` at edge ``m``;
        ``0`` means the flow does not create that dependency.
    max_costs:
        Column-wise maxima (the combined cost of breaking each edge).
    best_cost / best_position:
        Minimum of ``max_costs`` and the index achieving it (ties broken by
        the smallest index).
    """

    direction: str
    cycle: Tuple[Channel, ...]
    edges: Tuple[Tuple[Channel, Channel], ...]
    flow_names: Tuple[str, ...]
    entries: Dict[str, Tuple[int, ...]] = field(default_factory=dict)
    max_costs: Tuple[int, ...] = ()
    best_cost: int = 0
    best_position: int = 0

    @property
    def edge_labels(self) -> List[str]:
        """Human-readable column labels ``D1 .. Dj`` as in Table 1."""
        return [f"D{m + 1}" for m in range(len(self.edges))]

    def flows_creating(self, position: int) -> List[str]:
        """Flows that create the dependency at ``position`` (non-zero cost)."""
        return [name for name in self.flow_names if self.entries[name][position] > 0]

    def to_text(self) -> str:
        """Render the table the way the paper prints Table 1."""
        labels = self.edge_labels
        width = max([6] + [len(name) for name in self.flow_names])
        header = " " * (width + 1) + " ".join(f"{label:>4}" for label in labels)
        lines = [f"Cost table ({self.direction} direction)", header]
        for name in self.flow_names:
            row = " ".join(f"{value:>4}" for value in self.entries[name])
            lines.append(f"{name:<{width}} {row}")
        max_row = " ".join(f"{value:>4}" for value in self.max_costs)
        lines.append(f"{'MAX':<{width}} {max_row}")
        lines.append(
            f"best: cost {self.best_cost} at {labels[self.best_position]} "
            f"({self.edges[self.best_position][0].name} -> "
            f"{self.edges[self.best_position][1].name})"
        )
        return "\n".join(lines)


def _ordinal_costs(route: Route, cycle_set: set) -> List[int]:
    """For each position in the route, the number of cycle channels seen so
    far (inclusive).  Position ``i`` holds the 'forward ordinal' of
    ``route[i]`` when ``route[i]`` is a cycle channel."""
    ordinals = []
    count = 0
    for channel in route:
        if channel in cycle_set:
            count += 1
        ordinals.append(count)
    return ordinals


def _ordinal_costs_reverse(route: Route, cycle_set: set) -> List[int]:
    """Backward counterpart: number of cycle channels from position ``i`` to
    the end of the route (inclusive)."""
    ordinals = [0] * len(route)
    count = 0
    for i in range(len(route) - 1, -1, -1):
        if route[i] in cycle_set:
            count += 1
        ordinals[i] = count
    return ordinals


def build_cost_table(
    cycle: Sequence[Channel],
    routes: RouteSet,
    direction: str = FORWARD,
) -> CostTable:
    """Build the cost table of Algorithm 2 for one cycle and one direction."""
    if direction not in _DIRECTIONS:
        raise RemovalError(f"unknown break direction {direction!r}")
    cycle = list(cycle)
    if len(cycle) < 2:
        raise RemovalError("a CDG cycle must contain at least two channels")
    edges = cycle_edges(cycle)
    edge_index = {edge: m for m, edge in enumerate(edges)}
    cycle_set = set(cycle)

    entries: Dict[str, List[int]] = {}
    for flow_name, route in routes.items():
        # Flows not touching at least two cycle channels can never create a
        # cycle dependency (Algorithm 2, lines 3-7).
        in_cycle = sum(1 for channel in route if channel in cycle_set)
        if in_cycle < 2:
            continue
        if direction == FORWARD:
            ordinals = _ordinal_costs(route, cycle_set)
        else:
            ordinals = _ordinal_costs_reverse(route, cycle_set)
        row = [0] * len(edges)
        created_any = False
        for i, pair in enumerate(route.dependencies()):
            position = edge_index.get(pair)
            if position is None:
                continue
            created_any = True
            if direction == FORWARD:
                # duplicate from the flow's entry into the cycle up to and
                # including the edge's first channel (route position i)
                value = ordinals[i]
            else:
                # duplicate from the edge's second channel (route position
                # i + 1) down to where the flow exits the cycle
                value = ordinals[i + 1]
            row[position] = max(row[position], value)
        if created_any:
            entries[flow_name] = row

    flow_names = tuple(sorted(entries))
    if not flow_names:
        raise RemovalError(
            "no flow creates any dependency of the cycle; the cycle does not "
            "belong to this route set"
        )
    max_costs = tuple(
        max(entries[name][m] for name in flow_names) for m in range(len(edges))
    )
    best_position = min(range(len(edges)), key=lambda m: (max_costs[m], m))
    best_cost = max_costs[best_position]
    return CostTable(
        direction=direction,
        cycle=tuple(cycle),
        edges=tuple(edges),
        flow_names=flow_names,
        entries={name: tuple(row) for name, row in entries.items()},
        max_costs=max_costs,
        best_cost=best_cost,
        best_position=best_position,
    )


def find_dependency_to_break(
    cycle: Sequence[Channel],
    routes: RouteSet,
    direction: str = FORWARD,
) -> Tuple[int, int, CostTable]:
    """``FindDepToBreakForward`` / ``...Backward`` of Algorithm 1.

    Returns ``(cost, position, table)`` where ``position`` indexes the cycle
    edge to remove.
    """
    table = build_cost_table(cycle, routes, direction)
    return table.best_cost, table.best_position, table


def best_break(
    cycle: Sequence[Channel], routes: RouteSet
) -> Tuple[str, int, int, CostTable]:
    """Evaluate both directions and return the cheaper one.

    Returns ``(direction, cost, position, table)``.  Forward wins ties, as
    in Step 7 of Algorithm 1 (``if f_cost <= b_cost``).
    """
    f_cost, f_pos, f_table = find_dependency_to_break(cycle, routes, FORWARD)
    b_cost, b_pos, b_table = find_dependency_to_break(cycle, routes, BACKWARD)
    if f_cost <= b_cost:
        return FORWARD, f_cost, f_pos, f_table
    return BACKWARD, b_cost, b_pos, b_table
