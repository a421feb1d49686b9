"""The topology graph ``TG(S, L)`` — Definition 1.

A :class:`Topology` stores the switches, the directed physical links between
them and the number of virtual channels carried by each link.  Links start
with a single VC; both the deadlock-removal algorithm and the
resource-ordering baseline grow ``vc_count`` when they need extra channels.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import TopologyError
from repro.model.channels import Channel, Link


class Topology:
    """Directed switch-level topology graph.

    Parameters
    ----------
    name:
        Optional identifier used in reports and serialized files.

    Notes
    -----
    The class deliberately keeps the representation simple (dictionaries of
    switches and links) instead of wrapping a graph library; the package
    has no runtime dependency.  The deadlock algorithms operate on the
    channel dependency graph, not directly on the topology, and a plain
    representation keeps copies cheap and the serialization obvious.
    """

    def __init__(self, name: str = "topology"):
        self.name = name
        self._switches: List[str] = []
        self._switch_set: set = set()
        # link -> number of virtual channels on that link (>= 1)
        self._links: Dict[Link, int] = {}
        # optional per-link physical length in millimetres (for link power)
        self._link_lengths: Dict[Link, float] = {}

    # ------------------------------------------------------------------
    # switches
    # ------------------------------------------------------------------
    def add_switch(self, switch: str) -> None:
        """Add a switch; adding an existing switch is an error."""
        if not switch:
            raise TopologyError("switch name must be non-empty")
        if switch in self._switch_set:
            raise TopologyError(f"switch {switch!r} already exists")
        self._switch_set.add(switch)
        self._switches.append(switch)

    def add_switches(self, switches: Iterable[str]) -> None:
        """Add several switches at once."""
        for switch in switches:
            self.add_switch(switch)

    def has_switch(self, switch: str) -> bool:
        """True when ``switch`` is part of the topology."""
        return switch in self._switch_set

    @property
    def switches(self) -> List[str]:
        """Switch names in insertion order (copy)."""
        return list(self._switches)

    @property
    def switch_count(self) -> int:
        """Number of switches in the topology."""
        return len(self._switches)

    # ------------------------------------------------------------------
    # links
    # ------------------------------------------------------------------
    def add_link(
        self,
        src: str,
        dst: str,
        *,
        index: int = 0,
        vc_count: int = 1,
        length_mm: Optional[float] = None,
    ) -> Link:
        """Add a directed physical link from ``src`` to ``dst``.

        Returns the created :class:`Link`.
        """
        if not self.has_switch(src):
            raise TopologyError(f"unknown source switch {src!r}")
        if not self.has_switch(dst):
            raise TopologyError(f"unknown destination switch {dst!r}")
        if vc_count < 1:
            raise TopologyError(f"a link must carry at least one VC, got {vc_count}")
        link = Link(src, dst, index)
        if link in self._links:
            raise TopologyError(f"link {link.name} already exists")
        self._links[link] = vc_count
        if length_mm is not None:
            self.set_link_length(link, length_mm)
        return link

    def add_bidirectional_link(
        self, a: str, b: str, *, index: int = 0, vc_count: int = 1, length_mm: Optional[float] = None
    ) -> Tuple[Link, Link]:
        """Add the pair of directed links ``a->b`` and ``b->a``."""
        forward = self.add_link(a, b, index=index, vc_count=vc_count, length_mm=length_mm)
        backward = self.add_link(b, a, index=index, vc_count=vc_count, length_mm=length_mm)
        return forward, backward

    def has_link(self, link: Link) -> bool:
        """True when the physical link exists."""
        return link in self._links

    def find_link(self, src: str, dst: str, index: int = 0) -> Optional[Link]:
        """Return the link ``src->dst`` with the given parallel index, or None."""
        candidate = Link(src, dst, index)
        return candidate if candidate in self._links else None

    @property
    def links(self) -> List[Link]:
        """All physical links, sorted for determinism (copy)."""
        return sorted(self._links)

    @property
    def link_count(self) -> int:
        """Number of directed physical links."""
        return len(self._links)

    def remove_link(self, link: Link) -> None:
        """Remove a physical link (and its VC/length bookkeeping)."""
        if link not in self._links:
            raise TopologyError(f"cannot remove unknown link {link.name}")
        del self._links[link]
        self._link_lengths.pop(link, None)

    # ------------------------------------------------------------------
    # link lengths (used by the link power model)
    # ------------------------------------------------------------------
    def set_link_length(self, link: Link, length_mm: float) -> None:
        """Record the physical length of a link in millimetres."""
        if link not in self._links:
            raise TopologyError(f"cannot set length of unknown link {link.name}")
        if length_mm <= 0:
            raise TopologyError(f"link length must be positive, got {length_mm}")
        self._link_lengths[link] = float(length_mm)

    def link_length(self, link: Link, default: float = 1.0) -> float:
        """Physical length of a link in millimetres (default 1 mm)."""
        return self._link_lengths.get(link, default)

    # ------------------------------------------------------------------
    # virtual channels
    # ------------------------------------------------------------------
    def vc_count(self, link: Link) -> int:
        """Number of virtual channels currently carried by ``link``."""
        if link not in self._links:
            raise TopologyError(f"unknown link {link.name}")
        return self._links[link]

    def add_virtual_channel(self, link: Link) -> Channel:
        """Add one VC to ``link`` and return the newly created channel."""
        if link not in self._links:
            raise TopologyError(f"cannot add a VC to unknown link {link.name}")
        new_vc = self._links[link]
        self._links[link] = new_vc + 1
        return Channel(link, new_vc)

    def add_parallel_link(self, link: Link, *, vc_count: int = 1) -> Link:
        """Add a physical link parallel to ``link`` (same endpoints, next free
        parallel index) and return it.

        This is the "add physical channels instead of VCs" option the paper
        mentions for NoC architectures without virtual-channel support: the
        new link carries its own buffer(s) and its own switch ports.
        """
        if link not in self._links:
            raise TopologyError(f"cannot parallel unknown link {link.name}")
        index = link.index
        while Link(link.src, link.dst, index) in self._links:
            index += 1
        new_link = self.add_link(link.src, link.dst, index=index, vc_count=vc_count)
        if link in self._link_lengths:
            self.set_link_length(new_link, self._link_lengths[link])
        return new_link

    @property
    def extra_parallel_link_count(self) -> int:
        """Number of physical links with a parallel index greater than zero.

        The physical-channel variant of the removal algorithm grows this
        counter instead of :attr:`extra_vc_count`.
        """
        return sum(1 for link in self._links if link.index > 0)

    def has_channel(self, channel: Channel) -> bool:
        """True when ``channel`` (link + VC index) exists."""
        return channel.link in self._links and channel.vc < self._links[channel.link]

    def channels(self) -> List[Channel]:
        """All channels ``(link, vc)`` in the topology, sorted."""
        result = []
        for link in sorted(self._links):
            for vc in range(self._links[link]):
                result.append(Channel(link, vc))
        return result

    @property
    def channel_count(self) -> int:
        """Total number of channels (sum of VC counts over all links)."""
        return sum(self._links.values())

    @property
    def extra_vc_count(self) -> int:
        """Number of VCs beyond the first one on each link.

        This is the quantity plotted on the y-axis of Figures 8 and 9 of the
        paper: how many *additional* channels a deadlock-handling scheme had
        to add on top of the bare topology.
        """
        return sum(count - 1 for count in self._links.values())

    # ------------------------------------------------------------------
    # graph queries
    # ------------------------------------------------------------------
    def out_links(self, switch: str) -> List[Link]:
        """Links leaving ``switch``, sorted."""
        if not self.has_switch(switch):
            raise TopologyError(f"unknown switch {switch!r}")
        return sorted(link for link in self._links if link.src == switch)

    def in_links(self, switch: str) -> List[Link]:
        """Links entering ``switch``, sorted."""
        if not self.has_switch(switch):
            raise TopologyError(f"unknown switch {switch!r}")
        return sorted(link for link in self._links if link.dst == switch)

    def neighbors(self, switch: str) -> List[str]:
        """Switches reachable over one outgoing link, sorted and deduplicated."""
        return sorted({link.dst for link in self.out_links(switch)})

    def degree(self, switch: str) -> int:
        """Total number of links touching ``switch`` (in + out)."""
        return len(self.out_links(switch)) + len(self.in_links(switch))

    def is_connected(self) -> bool:
        """True when every switch can reach every other switch treating links
        as undirected (the usual notion of connectivity for NoC floorplans)."""
        if not self._switches:
            return True
        adjacency: Dict[str, set] = {s: set() for s in self._switches}
        for link in self._links:
            adjacency[link.src].add(link.dst)
            adjacency[link.dst].add(link.src)
        seen = set()
        frontier = [self._switches[0]]
        while frontier:
            node = frontier.pop()
            if node in seen:
                continue
            seen.add(node)
            frontier.extend(adjacency[node] - seen)
        return len(seen) == len(self._switches)

    def __iter__(self) -> Iterator[str]:
        return iter(self._switches)

    def __contains__(self, switch: str) -> bool:
        return switch in self._switch_set

    # ------------------------------------------------------------------
    # copying / equality / display
    # ------------------------------------------------------------------
    def copy(self) -> "Topology":
        """Deep-enough copy (switches, links, VC counts, lengths)."""
        clone = Topology(self.name)
        clone._switches = list(self._switches)
        clone._switch_set = set(self._switch_set)
        clone._links = dict(self._links)
        clone._link_lengths = dict(self._link_lengths)
        return clone

    def __eq__(self, other) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self._switch_set == other._switch_set
            and self._links == other._links
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Topology(name={self.name!r}, switches={self.switch_count}, "
            f"links={self.link_count}, channels={self.channel_count})"
        )
