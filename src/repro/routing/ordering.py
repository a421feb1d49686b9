"""The resource-ordering baseline (Dally & Towles resource classes).

This is the comparison scheme of Section 5 of the paper:

    "In this method the communication channels are given a resource number.
    After a flow uses a channel, the next channel that it acquires needs to
    have a resource number higher than the current channel.  [...] The
    number of classes needed for a flow depends on the length of the route
    and that leads to considerable overhead."

Deadlock freedom follows because a packet only ever waits for channels with
a strictly higher resource number, so no cyclic wait can form.  The cost is
extra virtual channels: a physical link must provide one channel per
distinct resource class any flow needs while crossing it.

Class-assignment strategies are looked up by name in the pluggable
:data:`repro.api.registry.ordering_strategies` registry (a registered
strategy factory takes the working design and returns a
:class:`ResourceClassAssigner`).  Built-ins:

* ``"hop_index"`` — the straightforward scheme the paper describes: the
  class of the *i*-th channel of a route is *i*.  A link then needs one VC
  per distinct hop index at which flows traverse it.
* ``"layered"`` — an optimised variant (used as an ablation): links get a
  base order from a DFS-based acyclic orientation of the link graph and a
  flow only opens a new class when it moves to a link with a lower base
  order, which needs far fewer VCs on tree-like topologies.  This shows the
  paper's comparison is against the textbook scheme, not against a straw
  man of our making.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.api.registry import ordering_strategies
from repro.errors import OrderingError
from repro.model.channels import Channel, Link
from repro.model.design import NocDesign
from repro.model.routes import Route

STRATEGY_HOP_INDEX = "hop_index"
STRATEGY_LAYERED = "layered"


@dataclass
class ResourceClassAssigner:
    """How one strategy maps routes to resource classes.

    Attributes
    ----------
    classes_for:
        Route -> per-hop resource-class list (one entry per channel).
    resource_number:
        ``(class, link)`` -> the strictly-increasing resource number
        recorded for a channel of that class on that link (the defining
        invariant checked by :func:`_check_ordering`).
    """

    classes_for: Callable[[Route], List[int]]
    resource_number: Callable[[int, Link], int]


@dataclass
class OrderingResult:
    """Outcome of applying resource ordering to a design.

    Attributes
    ----------
    design:
        Modified copy of the input design: links carry the extra VCs and the
        routes use them.
    strategy:
        Class-assignment strategy used.
    extra_vcs:
        Number of virtual channels added beyond one per link — the quantity
        plotted as the "Resource ordering" series in Figures 8 and 9.
    classes:
        Resource class assigned to every channel of the final design.
    classes_per_link:
        Number of distinct classes (= VCs) each physical link provides.
    """

    design: NocDesign
    strategy: str
    extra_vcs: int
    classes: Dict[Channel, int] = field(default_factory=dict)
    classes_per_link: Dict[Link, int] = field(default_factory=dict)

    @property
    def max_class(self) -> int:
        """Highest resource class used."""
        return max(self.classes.values()) if self.classes else 0

    def summary(self) -> str:
        """Short human-readable report."""
        return (
            f"Resource ordering ({self.strategy}) on {self.design.name!r}: "
            f"{self.extra_vcs} extra VC(s), {self.max_class + 1} resource class(es)"
        )


def _acyclic_link_order(design: NocDesign) -> Dict[Link, int]:
    """A total order on physical links derived from a DFS over the switch
    graph (an up*/down*-style orientation).

    Links pointing from a lower DFS-discovery switch to a higher one ("down"
    links) come after links pointing upwards, and within each group links
    are ordered by their endpoints' discovery times.  The result is used by
    the layered strategy: traversing links in increasing base order never
    needs a new class.
    """
    topology = design.topology
    discovery: Dict[str, int] = {}
    counter = 0
    for root in topology.switches:
        if root in discovery:
            continue
        stack = [root]
        while stack:
            node = stack.pop()
            if node in discovery:
                continue
            discovery[node] = counter
            counter += 1
            for neighbor in reversed(topology.neighbors(node)):
                if neighbor not in discovery:
                    stack.append(neighbor)
            # also walk backwards over incoming links so weakly connected
            # components are fully discovered
            for link in topology.in_links(node):
                if link.src not in discovery:
                    stack.append(link.src)

    def key(link: Link) -> Tuple[int, int, int, str]:
        up = 0 if discovery[link.dst] <= discovery[link.src] else 1
        return (up, discovery[link.src], discovery[link.dst], link.name)

    ordered = sorted(topology.links, key=key)
    return {link: i for i, link in enumerate(ordered)}


@ordering_strategies.register(STRATEGY_HOP_INDEX)
def _hop_index_strategy(work: NocDesign) -> ResourceClassAssigner:
    """The paper's textbook scheme: hop *i* gets class *i*."""

    def classes_for(route: Route) -> List[int]:
        return list(range(route.hop_count))

    def resource_number(cls: int, _link: Link) -> int:
        return cls

    return ResourceClassAssigner(classes_for, resource_number)


@ordering_strategies.register(STRATEGY_LAYERED)
def _layered_strategy(work: NocDesign) -> ResourceClassAssigner:
    """DFS-layered variant: a new class only on a base-order descent.

    A class level can span several hops, so the recorded resource number is
    the composite (level, base link order) flattened into one integer.
    """
    base_order = _acyclic_link_order(work)
    stride = len(work.topology.links) + 1

    def classes_for(route: Route) -> List[int]:
        classes: List[int] = []
        level = 0
        previous: Optional[Link] = None
        for link in route.links:
            if previous is not None and base_order[link] <= base_order[previous]:
                level += 1
            classes.append(level)
            previous = link
        return classes

    def resource_number(cls: int, link: Link) -> int:
        return cls * stride + base_order[link]

    return ResourceClassAssigner(classes_for, resource_number)


def apply_resource_ordering(
    design: NocDesign, *, strategy: str = STRATEGY_HOP_INDEX
) -> OrderingResult:
    """Apply the resource-ordering scheme and return the modified design.

    The input design must already have routes; the method keeps every flow
    on its physical path and only changes which VC of each link the flow
    uses, adding VCs where a link must serve several resource classes.

    ``strategy`` names an entry of the pluggable
    :data:`repro.api.registry.ordering_strategies` registry.
    """
    if strategy not in ordering_strategies:
        raise OrderingError(
            f"unknown resource-ordering strategy {strategy!r}; "
            f"available: {', '.join(ordering_strategies.names())}"
        )
    work = design.copy(name=f"{design.name}_ordering_{strategy}")
    topology = work.topology

    assigner: ResourceClassAssigner = ordering_strategies.get(strategy)(work)

    # First pass: determine, per flow and per hop, the resource class.
    flow_classes: Dict[str, List[int]] = {}
    for flow_name, route in work.routes.items():
        flow_classes[flow_name] = assigner.classes_for(route)

    # Second pass: per link, collect the set of classes required and give the
    # link one VC per class (classes are mapped to VC indices in increasing
    # order so that VC index is itself a valid resource number on that link).
    link_classes: Dict[Link, List[int]] = {}
    for flow_name, route in work.routes.items():
        for hop, channel in enumerate(route):
            cls = flow_classes[flow_name][hop]
            bucket = link_classes.setdefault(channel.link, [])
            if cls not in bucket:
                bucket.append(cls)
    for link in link_classes:
        link_classes[link].sort()

    extra = 0
    for link, classes in sorted(link_classes.items()):
        needed = len(classes)
        current = topology.vc_count(link)
        while current < needed:
            topology.add_virtual_channel(link)
            current += 1
        extra += max(0, needed - 1)

    # Third pass: rewrite routes so each hop uses the VC of its class.  The
    # recorded resource number must strictly increase along every route;
    # how a (class, link) pair maps to that number is the strategy's call.
    channel_class: Dict[Channel, int] = {}
    for flow_name, route in work.routes.items():
        new_channels = []
        for hop, channel in enumerate(route):
            cls = flow_classes[flow_name][hop]
            vc_index = link_classes[channel.link].index(cls)
            new_channel = Channel(channel.link, vc_index)
            channel_class[new_channel] = assigner.resource_number(cls, channel.link)
            new_channels.append(new_channel)
        work.routes.set_route(flow_name, Route(new_channels))

    classes_per_link = {link: len(classes) for link, classes in link_classes.items()}
    result = OrderingResult(
        design=work,
        strategy=strategy,
        extra_vcs=extra,
        classes=channel_class,
        classes_per_link=classes_per_link,
    )
    _check_ordering(result)
    return result


def _check_ordering(result: OrderingResult) -> None:
    """Verify the defining invariant: classes strictly increase along routes."""
    for flow_name, route in result.design.routes.items():
        previous_class: Optional[int] = None
        for channel in route:
            cls = result.classes.get(channel)
            if cls is None:
                raise OrderingError(
                    f"flow {flow_name!r} uses channel {channel.name} with no class"
                )
            if previous_class is not None and cls <= previous_class:
                raise OrderingError(
                    f"flow {flow_name!r}: resource class does not increase at "
                    f"{channel.name} ({previous_class} -> {cls})"
                )
            previous_class = cls
