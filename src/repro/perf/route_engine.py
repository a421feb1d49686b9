"""Indexed shortest-path routing engine.

The seed implementation of :func:`repro.routing.shortest_path._legacy_dijkstra`
is a best-first search whose heap entries carry the *full path* — the switch
name sequence (for tie-breaking) plus the link tuple.  Because only strictly
worse entries are pruned, every equal-cost path to every intermediate node is
kept and expanded.  On application-specific topologies that is merely wasteful;
on the regular grids the ``mesh`` synthesis backend generates it is fatal: a
``rows x cols`` mesh has :math:`\\binom{dx+dy}{dx}` equal-hop paths between two
switches, so one corner-to-corner flow of an 8x8 mesh enumerates thousands of
partial paths and route computation dominates the sweep wall-clock.

This module replaces that search with a proper indexed engine, without
changing a single returned route:

* **int relabelling** (:class:`SwitchGraph`) — switches are interned to dense
  integer ids *in sorted name order* and links to dense link ids, the same
  approach :mod:`repro.perf.cycle_search` uses for CDG channels.  Because ids
  are assigned in name order, comparing id tuples is equivalent to comparing
  switch-name tuples, which keeps the legacy tie-break exact while replacing
  string comparisons with int comparisons.
* **predecessor-array Dijkstra** (:meth:`SwitchGraph.shortest_path`) — one
  label per node instead of one heap entry per path.  The label of a node is
  the lexicographically smallest ``(cost, switch-id sequence)`` over all paths
  from the source; ties between parallel links are broken by link order,
  mirroring the heap comparison of the legacy entries.  Each node is expanded
  exactly once, so the search is ``O(E log V)`` label operations instead of
  exponential.
* **incremental congestion reweighting** (:class:`IndexedRouter`) — the
  congestion weight of a link only changes when a routed flow touches it, so
  the per-design router updates just the links of the last committed route
  instead of rebuilding the full ``O(links)`` weight dictionary per flow, and
  the adjacency/weight arrays are built once per design and reused across all
  of its flows.

Equivalence argument (enforced empirically by the ``cross_check`` flag of
:func:`repro.routing.shortest_path.compute_routes`, the six-benchmark byte
equality check in ``benchmarks/bench_routing.py`` and the hypothesis suite in
``tests/routing/test_routing_equivalence.py``): the legacy search returns the
minimum over all enumerated walks of ``(float cost, name sequence)``.  With
positive weights a cheapest walk is a simple path and every prefix of the
winning path is itself the winning label of its end node — if a prefix could
be exchanged for a lexicographically smaller equal-cost one, the exchange
would improve the full path, a contradiction.  Dijkstra over per-node
``(cost, id sequence)`` labels therefore reproduces the legacy selection
exactly, float tie-breaking included, because both accumulate path cost
left-to-right with the same additions.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Tuple

from repro.errors import RouteError, TopologyError
from repro.model.channels import Channel, Link
from repro.model.routes import Route
from repro.model.topology import Topology


class SwitchGraph:
    """Integer-relabelled, weight-carrying view of a :class:`Topology`.

    Switch ids are assigned in sorted name order (so id-tuple comparisons
    reproduce name-tuple comparisons) and link ids in :class:`Link` sort
    order (so per-node adjacency lists are sorted by ``(dst id, parallel
    index)`` for free).  Weights default to 1.0 — the hop-count metric.
    """

    __slots__ = ("topology", "switches", "id_of", "links", "link_id", "weight", "out")

    def __init__(self, topology: Topology):
        self.topology = topology
        self.switches: List[str] = sorted(topology.switches)
        self.id_of: Dict[str, int] = {name: i for i, name in enumerate(self.switches)}
        self.links: List[Link] = topology.links  # sorted copy
        self.link_id: Dict[Link, int] = {link: i for i, link in enumerate(self.links)}
        self.weight: List[float] = [1.0] * len(self.links)
        out: List[List[Tuple[int, int]]] = [[] for _ in self.switches]
        for lid, link in enumerate(self.links):
            out[self.id_of[link.src]].append((self.id_of[link.dst], lid))
        self.out = out

    # ------------------------------------------------------------------
    @property
    def switch_count(self) -> int:
        """Number of switches (dense id range)."""
        return len(self.switches)

    @property
    def link_count(self) -> int:
        """Number of links (dense link-id range)."""
        return len(self.links)

    def switch_id(self, switch: str) -> int:
        """Dense id of a switch; unknown names raise :class:`TopologyError`."""
        try:
            return self.id_of[switch]
        except KeyError:
            raise TopologyError(f"unknown switch {switch!r}") from None

    def set_weights(
        self, link_weights: Optional[Dict[Link, float]] = None, default: float = 1.0
    ) -> None:
        """Reset every link weight to ``default``, then apply ``link_weights``."""
        weight = self.weight
        for i in range(len(weight)):
            weight[i] = default
        if link_weights:
            link_id = self.link_id
            for link, value in link_weights.items():
                lid = link_id.get(link)
                if lid is not None:
                    weight[lid] = value

    # ------------------------------------------------------------------
    def shortest_path(self, source: int, target: int) -> Optional[List[int]]:
        """Cheapest link-id path ``source -> target`` (``None`` if unreachable).

        Ties are broken by the lexicographic order of the switch-id sequence
        (= switch-name sequence) and then by link order among equal-weight
        parallel links — the exact selection rule of the legacy path-tuple
        search.  Weights must be positive for the per-node label argument to
        hold (all built-in weight modes produce weights >= 1).
        """
        if source == target:
            return []
        out = self.out
        weight = self.weight
        # label[v] = (cost, switch-id sequence); via[v] = (prev node, link id).
        label: Dict[int, Tuple[float, Tuple[int, ...]]] = {source: (0.0, (source,))}
        via: Dict[int, Tuple[int, int]] = {}
        finalized = bytearray(len(self.switches))
        heap: List[Tuple[float, Tuple[int, ...], int]] = [(0.0, (source,), source)]
        while heap:
            cost, seq, node = heapq.heappop(heap)
            if finalized[node] or (cost, seq) != label[node]:
                continue
            if node == target:
                links: List[int] = []
                while node != source:
                    node, lid = via[node]
                    links.append(lid)
                links.reverse()
                return links
            finalized[node] = 1
            edges = out[node]
            i = 0
            n = len(edges)
            while i < n:
                succ, lid = edges[i]
                best_cost = cost + weight[lid]
                best_lid = lid
                i += 1
                # Fold parallel links into one representative: the cheapest,
                # first-in-link-order one — exactly the entry the legacy heap
                # would pop first among same-(cost, names) alternatives.
                while i < n and edges[i][0] == succ:
                    other = edges[i][1]
                    other_cost = cost + weight[other]
                    if other_cost < best_cost:
                        best_cost = other_cost
                        best_lid = other
                    i += 1
                if finalized[succ]:
                    continue
                current = label.get(succ)
                if current is None or best_cost < current[0]:
                    candidate_seq = seq + (succ,)
                elif best_cost > current[0]:
                    continue
                else:
                    candidate_seq = seq + (succ,)
                    if candidate_seq >= current[1]:
                        continue
                label[succ] = (best_cost, candidate_seq)
                via[succ] = (node, best_lid)
                heapq.heappush(heap, (best_cost, candidate_seq, succ))
        return None

    def route_between(self, source: str, target: str) -> Optional[Route]:
        """Shortest :class:`Route` (VC 0 per hop) between two switch names.

        Returns ``None`` when the target is unreachable.  A same-switch pair
        is rejected up front — a :class:`Route` cannot be empty, and a
        same-switch flow needs no network route in the first place.
        """
        if source == target:
            raise RouteError(
                f"source and destination switch are both {source!r}; "
                "no network route is needed"
            )
        path = self.shortest_path(self.switch_id(source), self.switch_id(target))
        if path is None:
            return None
        links = self.links
        return Route([Channel(links[lid], 0) for lid in path])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SwitchGraph(switches={self.switch_count}, links={self.link_count})"


class IndexedRouter:
    """Per-design routing driver with incremental congestion reweighting.

    One instance routes every flow of one design: the :class:`SwitchGraph`
    adjacency and weight arrays are built once per router and shared across
    all flows, and :meth:`commit` updates only the weights of the links the
    committed route actually touches (the congestion weight of every other
    link is unchanged by construction).

    The float expression mirrors the legacy weight dictionary exactly —
    ``1.0 + congestion_factor * routed_bandwidth / total_bandwidth`` with the
    same accumulation order — so both engines see bit-identical weights.
    """

    def __init__(
        self,
        topology: Topology,
        *,
        congestion_factor: float = 0.0,
        total_bandwidth: float = 1.0,
    ):
        self.graph = SwitchGraph(topology)
        self.congestion_factor = congestion_factor
        self.total_bandwidth = total_bandwidth
        self.routed_bandwidth: List[float] = [0.0] * self.graph.link_count

    def route(self, source_switch: str, destination_switch: str) -> Route:
        """Shortest route under the current weights (RouteError if none)."""
        route = self.graph.route_between(source_switch, destination_switch)
        if route is None:
            raise RouteError(
                f"no path from {source_switch!r} to {destination_switch!r} in "
                f"topology {self.graph.topology.name!r}"
            )
        return route

    def commit(self, route: Route, bandwidth: float) -> None:
        """Account a routed flow's bandwidth and reweight only its links."""
        graph = self.graph
        link_id = graph.link_id
        routed = self.routed_bandwidth
        factor = self.congestion_factor
        total = self.total_bandwidth
        weight = graph.weight
        for link in route.links:
            lid = link_id[link]
            routed[lid] += bandwidth
            if factor != 0:
                weight[lid] = 1.0 + factor * routed[lid] / total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndexedRouter(graph={self.graph!r}, "
            f"congestion_factor={self.congestion_factor})"
        )
