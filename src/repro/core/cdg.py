"""Channel Dependency Graph (CDG) — Definition 4 of the paper.

Vertices are channels ``(physical link, VC)``; there is a directed edge from
channel ``ci`` to channel ``cj`` when at least one route uses ``ci``
immediately followed by ``cj``.  A cycle in this graph is the necessary
condition for a routing deadlock under wormhole flow control with static
routing (Dally & Towles), which is the condition the removal algorithm
eliminates.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

from repro.errors import DesignError
from repro.model.channels import Channel
from repro.model.design import NocDesign
from repro.model.routes import RouteSet


class ChannelDependencyGraph:
    """Directed graph over channels with flow-labelled dependency edges.

    Each edge remembers *which flows* create the dependency; the cost model
    (Algorithm 2) and the cycle breaker both need that information.
    """

    def __init__(self):
        # node -> set of successor nodes
        self._succ: Dict[Channel, Set[Channel]] = {}
        self._pred: Dict[Channel, Set[Channel]] = {}
        # (ci, cj) -> set of flow names creating the dependency
        self._edge_flows: Dict[Tuple[Channel, Channel], Set[str]] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_channel(self, channel: Channel) -> None:
        """Add an isolated channel vertex (no-op when already present)."""
        if channel not in self._succ:
            self._succ[channel] = set()
            self._pred[channel] = set()

    def add_dependency(self, first: Channel, second: Channel, flow_name: str) -> None:
        """Record that ``flow_name`` uses ``first`` immediately before ``second``."""
        if first == second:
            raise DesignError(
                f"self-loop dependency on channel {first.name}: a channel "
                "cannot depend on itself (its link would need src == dst)"
            )
        self.add_channel(first)
        self.add_channel(second)
        self._succ[first].add(second)
        self._pred[second].add(first)
        self._edge_flows.setdefault((first, second), set()).add(flow_name)

    def add_route(self, flow_name: str, channels: Iterable[Channel]) -> None:
        """Add every consecutive channel pair of a route as dependencies."""
        channels = list(channels)
        for channel in channels:
            self.add_channel(channel)
        for first, second in zip(channels, channels[1:]):
            self.add_dependency(first, second, flow_name)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def channels(self) -> List[Channel]:
        """All vertices, sorted."""
        return sorted(self._succ)

    @property
    def channel_count(self) -> int:
        """Number of vertices."""
        return len(self._succ)

    @property
    def edges(self) -> List[Tuple[Channel, Channel]]:
        """All dependency edges, sorted."""
        return sorted(self._edge_flows)

    @property
    def edge_count(self) -> int:
        """Number of dependency edges."""
        return len(self._edge_flows)

    def has_channel(self, channel: Channel) -> bool:
        """True when the channel is a vertex of the CDG."""
        return channel in self._succ

    def has_dependency(self, first: Channel, second: Channel) -> bool:
        """True when the edge ``first -> second`` exists."""
        return (first, second) in self._edge_flows

    def successors(self, channel: Channel) -> List[Channel]:
        """Channels reachable over one dependency edge, sorted."""
        return sorted(self._succ.get(channel, ()))

    def predecessors(self, channel: Channel) -> List[Channel]:
        """Channels with a dependency edge into ``channel``, sorted."""
        return sorted(self._pred.get(channel, ()))

    def flows_on_edge(self, first: Channel, second: Channel) -> FrozenSet[str]:
        """Names of the flows that create the dependency ``first -> second``."""
        return frozenset(self._edge_flows.get((first, second), frozenset()))

    def out_degree(self, channel: Channel) -> int:
        """Number of outgoing dependency edges."""
        return len(self._succ.get(channel, ()))

    def in_degree(self, channel: Channel) -> int:
        """Number of incoming dependency edges."""
        return len(self._pred.get(channel, ()))

    # ------------------------------------------------------------------
    # structure analysis
    # ------------------------------------------------------------------
    def is_acyclic(self) -> bool:
        """True when the CDG contains no directed cycle.

        Uses Kahn's algorithm; acyclicity of the CDG is exactly the
        deadlock-freedom condition the paper targets.
        """
        in_degree = {node: len(preds) for node, preds in self._pred.items()}
        queue = [node for node, degree in in_degree.items() if degree == 0]
        visited = 0
        while queue:
            node = queue.pop()
            visited += 1
            for succ in self._succ[node]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    queue.append(succ)
        return visited == len(self._succ)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ChannelDependencyGraph(channels={self.channel_count}, edges={self.edge_count})"


def build_cdg(design_or_routes) -> ChannelDependencyGraph:
    """Build the CDG from a :class:`~repro.model.design.NocDesign` or a
    :class:`~repro.model.routes.RouteSet` (Step 2 of Algorithm 1).

    Only the channels some route uses become vertices: an unused channel
    can never be part of a cycle.
    """
    if isinstance(design_or_routes, NocDesign):
        routes: RouteSet = design_or_routes.routes
    else:
        routes = design_or_routes
    cdg = ChannelDependencyGraph()
    for flow_name, route in routes.items():
        cdg.add_route(flow_name, route.channels)
    return cdg
