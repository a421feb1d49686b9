"""Routes — Definition 3.

A :class:`Route` is the ordered list of channels a flow's packets traverse
from the switch its source core is attached to, to the switch its
destination core is attached to.  A :class:`RouteSet` maps flow names to
routes and is one of the three inputs of the deadlock-removal algorithm
(Algorithm 1 of the paper), together with the topology and the traffic.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.errors import RouteError
from repro.model.channels import Channel, Link, channels_are_adjacent


class Route:
    """An ordered, contiguous sequence of channels for one flow.

    The route is immutable from the outside; the deadlock-removal algorithm
    produces *new* Route objects when it moves a flow onto freshly added
    virtual channels.
    """

    def __init__(self, channels: Sequence[Channel]):
        channels = list(channels)
        if not channels:
            raise RouteError("a route must contain at least one channel")
        for first, second in zip(channels, channels[1:]):
            if not channels_are_adjacent(first, second):
                raise RouteError(
                    f"route is not contiguous: {first.name} is followed by "
                    f"{second.name} but {first.dst!r} != {second.src!r}"
                )
        self._channels: Tuple[Channel, ...] = tuple(channels)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def channels(self) -> Tuple[Channel, ...]:
        """The channels in traversal order."""
        return self._channels

    @property
    def links(self) -> Tuple[Link, ...]:
        """The physical links in traversal order."""
        return tuple(channel.link for channel in self._channels)

    @property
    def source_switch(self) -> str:
        """Switch the route starts from."""
        return self._channels[0].src

    @property
    def destination_switch(self) -> str:
        """Switch the route ends at."""
        return self._channels[-1].dst

    @property
    def hop_count(self) -> int:
        """Number of channels (switch-to-switch hops) in the route."""
        return len(self._channels)

    @property
    def switches(self) -> List[str]:
        """All switches visited, in order (source first, destination last)."""
        result = [self.source_switch]
        result.extend(channel.dst for channel in self._channels)
        return result

    def uses_channel(self, channel: Channel) -> bool:
        """True when the route traverses ``channel``."""
        return channel in self._channels

    def uses_link(self, link: Link) -> bool:
        """True when the route traverses any VC of ``link``."""
        return any(channel.link == link for channel in self._channels)

    def index_of(self, channel: Channel) -> int:
        """Position of the first occurrence of ``channel`` in the route."""
        try:
            return self._channels.index(channel)
        except ValueError:
            raise RouteError(f"route does not use channel {channel.name}") from None

    def dependencies(self) -> List[Tuple[Channel, Channel]]:
        """Consecutive channel pairs — the CDG edges this route contributes."""
        return list(zip(self._channels, self._channels[1:]))

    # ------------------------------------------------------------------
    # rewriting (used by the cycle breaker)
    # ------------------------------------------------------------------
    def replace_channels(self, mapping: Dict[Channel, Channel]) -> "Route":
        """Return a new route with every channel in ``mapping`` substituted.

        The substitution must preserve the endpoints of each replaced
        channel (a different VC of the same link, or a parallel physical
        link between the same two switches) so that contiguity is untouched.
        """
        for old, new in mapping.items():
            if (old.src, old.dst) != (new.src, new.dst):
                raise RouteError(
                    f"cannot replace {old.name} by {new.name}: different endpoints"
                )
        return Route([mapping.get(channel, channel) for channel in self._channels])

    def replace_at_positions(self, positions: Dict[int, Channel]) -> "Route":
        """Return a new route with the channel at each position replaced.

        Like :meth:`replace_channels` but indexed by position, which matters
        if a route were ever to traverse the same channel twice.
        """
        new_channels = list(self._channels)
        for position, new in positions.items():
            if position < 0 or position >= len(new_channels):
                raise RouteError(f"position {position} outside route of length {len(new_channels)}")
            old = new_channels[position]
            if (old.src, old.dst) != (new.src, new.dst):
                raise RouteError(
                    f"cannot replace {old.name} by {new.name} at "
                    f"position {position}: different endpoints"
                )
            new_channels[position] = new
        return Route(new_channels)

    # ------------------------------------------------------------------
    # dunder
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Channel]:
        return iter(self._channels)

    def __len__(self) -> int:
        return len(self._channels)

    def __getitem__(self, index) -> Channel:
        return self._channels[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Route):
            return NotImplemented
        return self._channels == other._channels

    def __hash__(self) -> int:
        return hash(self._channels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Route(" + " -> ".join(channel.name for channel in self._channels) + ")"


class RouteSet:
    """Mapping from flow name to :class:`Route`."""

    def __init__(self, routes: Optional[Dict[str, Route]] = None):
        self._routes: Dict[str, Route] = dict(routes or {})
        self._version = 0

    @property
    def version(self) -> int:
        """Mutation counter, bumped by every route assignment or removal.

        Derived caches (e.g. the compiled simulation template and the
        witness CDG memoised on a design) record the version they were
        built against and detect route changes by comparing it — an O(1)
        staleness check where comparing the routes themselves would cost a
        full walk.
        """
        return self._version

    def set_route(self, flow_name: str, route: Route) -> None:
        """Assign (or replace) the route of a flow."""
        if not flow_name:
            raise RouteError("flow name must be non-empty")
        self._routes[flow_name] = route
        self._version += 1

    def route(self, flow_name: str) -> Route:
        """Look up the route of a flow."""
        try:
            return self._routes[flow_name]
        except KeyError:
            raise RouteError(f"no route for flow {flow_name!r}") from None

    def has_route(self, flow_name: str) -> bool:
        """True when a route is defined for the flow."""
        return flow_name in self._routes

    def remove_route(self, flow_name: str) -> None:
        """Delete a flow's route."""
        if flow_name not in self._routes:
            raise RouteError(f"no route for flow {flow_name!r}")
        del self._routes[flow_name]
        self._version += 1

    @property
    def flow_names(self) -> List[str]:
        """Sorted flow names with a route."""
        return sorted(self._routes)

    def items(self) -> List[Tuple[str, Route]]:
        """(flow name, route) pairs sorted by flow name."""
        return [(name, self._routes[name]) for name in self.flow_names]

    def total_hop_count(self) -> int:
        """Sum of route lengths (proportional to dynamic link traversals)."""
        return sum(route.hop_count for route in self._routes.values())

    def copy(self) -> "RouteSet":
        """Shallow copy (routes themselves are immutable)."""
        return RouteSet(dict(self._routes))

    def __iter__(self) -> Iterator[str]:
        return iter(self.flow_names)

    def __len__(self) -> int:
        return len(self._routes)

    def __contains__(self, flow_name: str) -> bool:
        return flow_name in self._routes

    def __eq__(self, other) -> bool:
        if not isinstance(other, RouteSet):
            return NotImplemented
        return self._routes == other._routes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RouteSet({len(self._routes)} routes)"
