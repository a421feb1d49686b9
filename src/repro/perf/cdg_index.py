"""Incrementally maintained, integer-indexed channel dependency graph.

The seed implementation of Algorithm 1 rebuilds the whole CDG with
``build_cdg(work)`` after every single cycle break, even though a break only
re-routes a handful of flows.  :class:`CDGIndex` removes that rebuild from
the hot loop:

* channels are *interned* to dense integer ids once per removal run, so the
  cycle search hashes and compares small ints instead of nested frozen
  dataclasses (``Channel`` -> ``Link`` -> three string fields);
* adjacency is kept as int sets plus lazily presorted tuples that are
  invalidated only when the vertex they belong to mutates;
* route deltas (``remove_route`` of the old route, ``add_route`` of the new
  one) update the graph in time proportional to the touched routes, and the
  ids whose adjacency changed are collected in a *dirty set* that the
  incremental cycle search (:mod:`repro.perf.cycle_search`) uses to decide
  which cached per-SCC results are still valid;
* every flow's route is kept as interned ids (:meth:`CDGIndex.route_ids`,
  read by :mod:`repro.perf.cost_index`), and the flows creating a
  dependency come from the per-edge flow sets
  (:meth:`CDGIndex.flows_creating`) instead of a scan of every route.

A removal run builds its own index and applies every break's route delta
to it; no index outlives its run.

The index is behaviour-equivalent to a fresh
:func:`repro.core.cdg.build_cdg` of the current route set at every point;
:meth:`CDGIndex.verify_against` asserts exactly that and is wired to the
``cross_check`` debug flag of :class:`repro.core.removal.DeadlockRemover`.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.cdg import ChannelDependencyGraph
from repro.errors import DesignError
from repro.model.channels import Channel
from repro.model.routes import RouteSet
from repro.perf.counters import counters

#: Sort key of a channel — identical ordering to the ``order=True`` dataclass
#: comparison of :class:`Channel` (link src, dst, index, then VC), computed
#: once per interned channel instead of on every comparison.
ChannelKey = Tuple[str, str, int, int]


def channel_sort_key(channel: Channel) -> ChannelKey:
    """The tuple :class:`Channel` ordering compares, precomputed."""
    link = channel.link
    return (link.src, link.dst, link.index, channel.vc)


class CDGIndex:
    """Dirty-region incremental CDG over interned integer channel ids."""

    def __init__(self):
        # id -> Channel and the reverse interning map.
        self._channels: List[Channel] = []
        self._keys: List[ChannelKey] = []
        self._ids: Dict[Channel, int] = {}
        # id -> adjacent ids.  Entries exist for every interned id; an id is
        # a *live* vertex only while some route uses its channel.
        self._succ: List[Set[int]] = []
        self._pred: List[Set[int]] = []
        # id -> number of route positions currently occupying the channel.
        self._usage: List[int] = []
        # (id, id) -> names of the flows creating the dependency.
        self._edge_flows: Dict[Tuple[int, int], Set[str]] = {}
        # flow name -> its route as interned ids.
        self._route_ids: Dict[str, Tuple[int, ...]] = {}
        # Lazily sorted adjacency (by channel sort key); None = needs resort.
        self._sorted_succ: List[Optional[Tuple[int, ...]]] = []
        # Live vertex ids in channel sort order; None = needs resort.
        self._sorted_vertices: Optional[Tuple[int, ...]] = None
        # Ids whose adjacency changed since the last consume_dirty().
        self._dirty: Set[int] = set()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_routes(cls, routes: RouteSet) -> "CDGIndex":
        """Build the index from a route set (equivalent to ``build_cdg``)."""
        index = cls()
        for flow_name, route in routes.items():
            index.add_route(flow_name, route.channels)
        return index

    def intern(self, channel: Channel) -> int:
        """Dense integer id of ``channel``, allocating one on first use."""
        existing = self._ids.get(channel)
        if existing is not None:
            return existing
        new_id = len(self._channels)
        self._ids[channel] = new_id
        self._channels.append(channel)
        self._keys.append(channel_sort_key(channel))
        self._succ.append(set())
        self._pred.append(set())
        self._usage.append(0)
        self._sorted_succ.append(())
        return new_id

    # ------------------------------------------------------------------
    # route deltas
    # ------------------------------------------------------------------
    def add_route(self, flow_name: str, channels: Iterable[Channel]) -> None:
        """Add one flow's route: vertices, dependencies and usage counts."""
        ids = tuple(self.intern(channel) for channel in channels)
        self._route_ids[flow_name] = ids
        for channel_id in ids:
            if self._usage[channel_id] == 0:
                self._sorted_vertices = None
            self._usage[channel_id] += 1
        for first, second in zip(ids, ids[1:]):
            self._add_dependency(first, second, flow_name)

    def remove_route(self, flow_name: str, channels: Iterable[Channel]) -> None:
        """Undo :meth:`add_route` for the same flow and channel sequence."""
        ids = [self._ids[channel] for channel in channels]
        self._route_ids.pop(flow_name, None)
        # A route may traverse the same channel pair more than once, but the
        # flow is recorded once per distinct edge — remove it exactly once.
        for first, second in dict.fromkeys(zip(ids, ids[1:])):
            self._remove_dependency(first, second, flow_name)
        for channel_id in ids:
            self._usage[channel_id] -= 1
            if self._usage[channel_id] == 0:
                self._sorted_vertices = None
            elif self._usage[channel_id] < 0:
                raise DesignError(
                    f"usage count of {self._channels[channel_id].name} went "
                    "negative; remove_route does not match a prior add_route"
                )

    def apply_route_change(
        self, flow_name: str, old_channels: Iterable[Channel], new_channels: Iterable[Channel]
    ) -> None:
        """Replace one flow's route (the delta a cycle break produces)."""
        self.remove_route(flow_name, old_channels)
        self.add_route(flow_name, new_channels)
        counters.route_deltas += 1

    def _add_dependency(self, first: int, second: int, flow_name: str) -> None:
        if first == second:
            raise DesignError(
                f"self-loop dependency on channel {self._channels[first].name}"
            )
        edge = (first, second)
        flows = self._edge_flows.get(edge)
        if flows is None:
            self._edge_flows[edge] = {flow_name}
            self._succ[first].add(second)
            self._pred[second].add(first)
            self._sorted_succ[first] = None
            self._dirty.add(first)
            self._dirty.add(second)
        else:
            flows.add(flow_name)

    def _remove_dependency(self, first: int, second: int, flow_name: str) -> None:
        edge = (first, second)
        flows = self._edge_flows.get(edge)
        if flows is None or flow_name not in flows:
            raise DesignError(
                f"flow {flow_name!r} does not create the dependency "
                f"{self._channels[first].name} -> {self._channels[second].name}"
            )
        flows.discard(flow_name)
        if not flows:
            del self._edge_flows[edge]
            self._succ[first].discard(second)
            self._pred[second].discard(first)
            self._sorted_succ[first] = None
            self._dirty.add(first)
            self._dirty.add(second)

    # ------------------------------------------------------------------
    # queries (mirroring ChannelDependencyGraph, over ids)
    # ------------------------------------------------------------------
    def channel_of(self, channel_id: int) -> Channel:
        """The channel a dense id was interned for."""
        return self._channels[channel_id]

    def key_of(self, channel_id: int) -> ChannelKey:
        """Precomputed sort key of an interned id."""
        return self._keys[channel_id]

    def is_live(self, channel_id: int) -> bool:
        """True while at least one route uses the id's channel."""
        return self._usage[channel_id] > 0

    @property
    def interned_count(self) -> int:
        """Number of channels ever interned (the dense id range, live or not)."""
        return len(self._channels)

    @property
    def vertex_count(self) -> int:
        """Number of live vertices (channels used by at least one route)."""
        return sum(1 for usage in self._usage if usage > 0)

    @property
    def edge_count(self) -> int:
        """Number of dependency edges."""
        return len(self._edge_flows)

    def sorted_vertices(self) -> Tuple[int, ...]:
        """Live vertex ids in channel sort order (cached)."""
        if self._sorted_vertices is None:
            live = [i for i in range(len(self._channels)) if self._usage[i] > 0]
            live.sort(key=self._keys.__getitem__)
            self._sorted_vertices = tuple(live)
        return self._sorted_vertices

    def sorted_successors(self, channel_id: int) -> Tuple[int, ...]:
        """Successor ids in channel sort order (cached until mutation)."""
        cached = self._sorted_succ[channel_id]
        if cached is None:
            cached = tuple(sorted(self._succ[channel_id], key=self._keys.__getitem__))
            self._sorted_succ[channel_id] = cached
        return cached

    def successors(self, channel_id: int) -> Set[int]:
        """The raw successor id set (do not mutate)."""
        return self._succ[channel_id]

    def predecessors(self, channel_id: int) -> Set[int]:
        """The raw predecessor id set (do not mutate)."""
        return self._pred[channel_id]

    def flows_on_edge(self, first: int, second: int) -> Set[str]:
        """Flow names creating the dependency ``first -> second`` (copy)."""
        return set(self._edge_flows.get((first, second), ()))

    def flows_creating(self, edge: Tuple[Channel, Channel]) -> List[str]:
        """Names of the flows whose route creates ``edge``, sorted.

        The indexed equivalent of
        :func:`repro.core.breaker.flows_creating_dependency`, which scans
        every route in name order and so lists the same flows.
        """
        first, second = self.intern(edge[0]), self.intern(edge[1])
        return sorted(self._edge_flows.get((first, second), ()))

    def route_ids(self, flow_name: str) -> Tuple[int, ...]:
        """The flow's current route as a tuple of interned channel ids."""
        return self._route_ids[flow_name]

    # ------------------------------------------------------------------
    # dirty tracking
    # ------------------------------------------------------------------
    @property
    def dirty(self) -> Set[int]:
        """Ids whose adjacency changed since the last :meth:`consume_dirty`."""
        return set(self._dirty)

    def consume_dirty(self) -> Set[int]:
        """Return and clear the dirty set (one search epoch ends)."""
        dirty = self._dirty
        self._dirty = set()
        return dirty

    # ------------------------------------------------------------------
    # structure analysis
    # ------------------------------------------------------------------
    def is_acyclic(self) -> bool:
        """Kahn's algorithm over the int adjacency (deadlock-freedom test)."""
        in_degree = {}
        for i in range(len(self._channels)):
            if self._usage[i] > 0:
                in_degree[i] = len(self._pred[i])
        queue = [i for i, degree in in_degree.items() if degree == 0]
        visited = 0
        while queue:
            node = queue.pop()
            visited += 1
            for succ in self._succ[node]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    queue.append(succ)
        return visited == len(in_degree)

    def to_cdg(self) -> ChannelDependencyGraph:
        """Materialise an equivalent :class:`ChannelDependencyGraph`."""
        cdg = ChannelDependencyGraph()
        for i in range(len(self._channels)):
            if self._usage[i] > 0:
                cdg.add_channel(self._channels[i])
        for (first, second), flows in self._edge_flows.items():
            for flow in flows:
                cdg.add_dependency(self._channels[first], self._channels[second], flow)
        return cdg

    def verify_against(self, cdg: ChannelDependencyGraph) -> None:
        """Assert exact equivalence with a freshly built CDG.

        Raises :class:`~repro.errors.DesignError` listing the first few
        discrepancies when the incremental state drifted from the
        from-scratch build — the cross-check behind the ``cross_check``
        debug flag of the removal engine.
        """
        problems: List[str] = []
        mine = {self._channels[i] for i in range(len(self._channels)) if self._usage[i] > 0}
        theirs = set(cdg.channels)
        for channel in sorted(mine - theirs):
            problems.append(f"extra vertex {channel.name}")
        for channel in sorted(theirs - mine):
            problems.append(f"missing vertex {channel.name}")
        my_edges = {
            (self._channels[a], self._channels[b]): frozenset(flows)
            for (a, b), flows in self._edge_flows.items()
        }
        their_edges = {
            edge: cdg.flows_on_edge(*edge) for edge in cdg.edges
        }
        for edge in sorted(set(my_edges) - set(their_edges)):
            problems.append(f"extra edge {edge[0].name} -> {edge[1].name}")
        for edge in sorted(set(their_edges) - set(my_edges)):
            problems.append(f"missing edge {edge[0].name} -> {edge[1].name}")
        for edge in sorted(set(my_edges) & set(their_edges)):
            if my_edges[edge] != their_edges[edge]:
                problems.append(
                    f"flow labels differ on {edge[0].name} -> {edge[1].name}: "
                    f"{sorted(my_edges[edge])} != {sorted(their_edges[edge])}"
                )
        if problems:
            shown = "; ".join(problems[:5])
            extra = "" if len(problems) <= 5 else f" (+{len(problems) - 5} more)"
            raise DesignError(
                f"incremental CDG index diverged from full rebuild: {shown}{extra}"
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CDGIndex(vertices={self.vertex_count}, edges={self.edge_count}, "
            f"interned={len(self._channels)}, dirty={len(self._dirty)})"
        )
