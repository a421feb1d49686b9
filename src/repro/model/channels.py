"""Physical links and channels (link + virtual channel) — Definition 3/4.

A *physical link* is a directed connection between two switches.  A
*channel* is a physical link together with a virtual-channel (VC) index;
channels are the vertices of the channel dependency graph and the resources
that wormhole packets acquire hop by hop.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TopologyError


@dataclass(frozen=True, order=True)
class Link:
    """A directed physical link between two switches.

    Parameters
    ----------
    src:
        Name of the switch the link leaves.
    dst:
        Name of the switch the link enters.
    index:
        Disambiguates parallel physical links between the same pair of
        switches.  Almost always ``0``.
    """

    src: str
    dst: str
    index: int = 0

    def __post_init__(self):
        if not self.src or not self.dst:
            raise TopologyError("link endpoints must be non-empty switch names")
        if self.src == self.dst:
            raise TopologyError(f"self-loop link on switch {self.src!r} is not allowed")
        if self.index < 0:
            raise TopologyError(f"link index must be non-negative, got {self.index}")

    @property
    def name(self) -> str:
        """Human-readable name, e.g. ``SW1->SW2`` or ``SW1->SW2#1``."""
        suffix = "" if self.index == 0 else f"#{self.index}"
        return f"{self.src}->{self.dst}{suffix}"

    def reversed(self) -> "Link":
        """The link going the opposite direction (same parallel index)."""
        return Link(self.dst, self.src, self.index)

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


@dataclass(frozen=True, order=True)
class Channel:
    """A physical link plus a virtual-channel index (Definition 3).

    Channels are the unit of resource acquisition under wormhole flow
    control and therefore the vertices of the channel dependency graph
    (Definition 4).  ``vc == 0`` is the default channel every link starts
    with; the deadlock-removal algorithm and the resource-ordering baseline
    add channels with higher ``vc`` indices.
    """

    link: Link
    vc: int = 0

    def __post_init__(self):
        if self.vc < 0:
            raise TopologyError(f"virtual channel index must be non-negative, got {self.vc}")

    @property
    def src(self) -> str:
        """Switch the channel leaves."""
        return self.link.src

    @property
    def dst(self) -> str:
        """Switch the channel enters."""
        return self.link.dst

    @property
    def name(self) -> str:
        """Human-readable name, e.g. ``SW1->SW2.vc0``."""
        return f"{self.link.name}.vc{self.vc}"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.name


def channels_are_adjacent(first: Channel, second: Channel) -> bool:
    """True when a packet can traverse ``first`` and then ``second``.

    Two channels are adjacent when the switch the first one enters is the
    switch the second one leaves — i.e. the pair can appear consecutively in
    a route and therefore creates a dependency edge in the CDG.
    """
    return first.dst == second.src
