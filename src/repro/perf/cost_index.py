"""Int-indexed cost tables — Algorithm 2 over channel-id arrays.

:func:`repro.core.cost.build_cost_table` is exact but pays for its clarity
in the removal hot loop: choosing a break direction builds the forward and
the backward table separately, and each build scans *every* route of the
design with ``Channel in set`` membership tests that hash nested frozen
dataclasses — ``O(flows x route length)`` channel hashes per iteration,
twice.

:class:`CycleCostEngine` produces byte-identical
:class:`~repro.core.cost.CostTable` objects from the state a
:class:`~repro.perf.cdg_index.CDGIndex` already maintains:

* the **rows** of the table are exactly the flows recorded on the cycle's
  dependency edges (a flow contributes a row iff it creates at least one
  cycle dependency, and the index's per-edge flow sets list precisely those
  flows), so only the handful of flows touching the cycle are visited at
  all;
* both directions come out of **one pass** per flow over its interned
  channel-id array: the forward ordinal is a running prefix count of cycle
  members, and the backward ordinal (inclusive suffix count) is recovered
  from it as ``total - prefix + membership`` — no reverse scan, no second
  pass, and int comparisons instead of dataclass hashing throughout.

Equivalence is enforced three ways: the ``cross_check`` flag of the
``"context"`` removal engine compares every produced table against the
reference builder mid-run, the hypothesis suite in
``tests/perf/test_cost_index.py`` replays random topologies through both
paths, and ``benchmarks/bench_removal_scaling.py`` asserts identical
:class:`~repro.core.report.BreakAction` sequences on every SoC benchmark.
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.core.cost import BACKWARD, FORWARD, CostTable
from repro.errors import RemovalError
from repro.model.channels import Channel
from repro.model.routes import RouteSet
from repro.perf.cdg_index import CDGIndex
from repro.perf.counters import counters


class CycleCostEngine:
    """Builds both cost tables of a cycle in one pass over int arrays.

    Parameters
    ----------
    index:
        The CDG index of the current route set; supplies channel interning,
        the per-edge flow sets that name the table rows and every flow's
        route as interned ids.  The engine only reads it; the caller keeps
        it in sync as routes change.
    """

    def __init__(self, index: CDGIndex):
        self._index = index

    @classmethod
    def from_routes(cls, routes: RouteSet) -> "CycleCostEngine":
        """Standalone engine over a plain route set (tests, one-off use)."""
        return cls(CDGIndex.from_routes(routes))

    # ------------------------------------------------------------------
    def tables(self, cycle: Sequence[Channel]) -> Tuple[CostTable, CostTable]:
        """The ``(forward, backward)`` cost tables of one cycle.

        Field-for-field equal to two :func:`~repro.core.cost.build_cost_table`
        calls on the current routes (same rows, same entries, same column
        maxima, same best cost/position and tie-breaking).
        """
        index = self._index
        cycle = list(cycle)
        if len(cycle) < 2:
            raise RemovalError("a CDG cycle must contain at least two channels")
        cycle_ids = [index.intern(channel) for channel in cycle]
        edge_ids = list(zip(cycle_ids, cycle_ids[1:]))
        edge_ids.append((cycle_ids[-1], cycle_ids[0]))
        edge_pos = {edge: m for m, edge in enumerate(edge_ids)}
        members = set(cycle_ids)
        n_edges = len(edge_ids)

        # Rows = flows recorded on at least one cycle edge.  Sorted order
        # matches the reference builder, which iterates RouteSet.items()
        # (sorted by name) and keeps only rows that created a dependency.
        row_flows: set = set()
        for first, second in edge_ids:
            row_flows |= index.flows_on_edge(first, second)

        forward_entries: Dict[str, Tuple[int, ...]] = {}
        backward_entries: Dict[str, Tuple[int, ...]] = {}
        for flow_name in sorted(row_flows):
            ids = index.route_ids(flow_name)
            length = len(ids)
            # Forward ordinals: inclusive prefix count of cycle members.
            prefix = [0] * length
            member_at = [False] * length
            count = 0
            for i, channel_id in enumerate(ids):
                if channel_id in members:
                    count += 1
                    member_at[i] = True
                prefix[i] = count
            total = count
            forward_row = [0] * n_edges
            backward_row = [0] * n_edges
            for i in range(length - 1):
                position = edge_pos.get((ids[i], ids[i + 1]))
                if position is None:
                    continue
                if prefix[i] > forward_row[position]:
                    forward_row[position] = prefix[i]
                # Inclusive suffix count at i+1, derived from the prefix.
                backward = total - prefix[i + 1] + (1 if member_at[i + 1] else 0)
                if backward > backward_row[position]:
                    backward_row[position] = backward
            forward_entries[flow_name] = tuple(forward_row)
            backward_entries[flow_name] = tuple(backward_row)

        if not forward_entries:
            raise RemovalError(
                "no flow creates any dependency of the cycle; the cycle does not "
                "belong to this route set"
            )
        counters.cost_tables_indexed += 2
        cycle_tuple = tuple(cycle)
        edges = tuple(zip(cycle_tuple, cycle_tuple[1:])) + ((cycle_tuple[-1], cycle_tuple[0]),)
        return (
            _finish_table(FORWARD, cycle_tuple, edges, forward_entries),
            _finish_table(BACKWARD, cycle_tuple, edges, backward_entries),
        )

    def best_break(self, cycle: Sequence[Channel]) -> Tuple[str, int, int, CostTable]:
        """``(direction, cost, position, table)`` of the cheaper direction.

        Forward wins ties (Step 7 of Algorithm 1), exactly as
        :func:`repro.core.cost.best_break`; both tables come from the same
        single pass.
        """
        forward, backward = self.tables(cycle)
        if forward.best_cost <= backward.best_cost:
            return FORWARD, forward.best_cost, forward.best_position, forward
        return BACKWARD, backward.best_cost, backward.best_position, backward


def _finish_table(
    direction: str,
    cycle: Tuple[Channel, ...],
    edges: Tuple[Tuple[Channel, Channel], ...],
    entries: Dict[str, Tuple[int, ...]],
) -> CostTable:
    """Column maxima + best selection, identical to the reference builder."""
    flow_names = tuple(sorted(entries))
    max_costs = tuple(
        max(entries[name][m] for name in flow_names) for m in range(len(edges))
    )
    best_position = min(range(len(edges)), key=lambda m: (max_costs[m], m))
    return CostTable(
        direction=direction,
        cycle=cycle,
        edges=edges,
        flow_names=flow_names,
        entries=entries,
        max_costs=max_costs,
        best_cost=max_costs[best_position],
        best_position=best_position,
    )
