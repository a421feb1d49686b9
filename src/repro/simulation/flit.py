"""Packets and flits.

Wormhole flow control splits a packet into flits: a head flit that carries
the route (source routing), zero or more body flits and a tail flit that
releases the channels the packet acquired.  Flits are tiny mutable records;
the simulator creates a lot of them, so they use ``__slots__``.
"""

from __future__ import annotations

from typing import Optional, Tuple

from repro.model.channels import Channel


class Packet:
    """One packet of a flow, travelling over a fixed route."""

    __slots__ = (
        "packet_id",
        "flow_name",
        "route",
        "size_flits",
        "created_cycle",
        "delivered_cycle",
    )

    def __init__(
        self,
        packet_id: int,
        flow_name: str,
        route: Tuple[Channel, ...],
        size_flits: int,
        created_cycle: int,
    ):
        self.packet_id = packet_id
        self.flow_name = flow_name
        self.route = route
        self.size_flits = size_flits
        self.created_cycle = created_cycle
        self.delivered_cycle: Optional[int] = None

    @property
    def latency(self) -> Optional[int]:
        """Cycles from creation to tail delivery (None while in flight)."""
        if self.delivered_cycle is None:
            return None
        return self.delivered_cycle - self.created_cycle

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(id={self.packet_id}, flow={self.flow_name!r}, "
            f"size={self.size_flits}, hops={len(self.route)})"
        )


class Flit:
    """One flit of a packet.

    ``hops_done`` counts how many channels of the packet's route this flit
    has already traversed; the next channel it needs is
    ``packet.route[hops_done]``.
    """

    __slots__ = ("packet", "index", "hops_done")

    def __init__(self, packet: Packet, index: int):
        self.packet = packet
        self.index = index
        self.hops_done = 0

    @property
    def is_head(self) -> bool:
        """True for the first flit of the packet."""
        return self.index == 0

    @property
    def is_tail(self) -> bool:
        """True for the last flit of the packet."""
        return self.index == self.packet.size_flits - 1

    @property
    def next_channel(self) -> Optional[Channel]:
        """The channel this flit traverses next (None when it has arrived)."""
        if self.hops_done >= len(self.packet.route):
            return None
        return self.packet.route[self.hops_done]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "H" if self.is_head else ("T" if self.is_tail else "B")
        return f"Flit({kind}, packet={self.packet.packet_id}, hop={self.hops_done})"


def make_flits(packet: Packet) -> list:
    """All flits of a packet, head first."""
    return [Flit(packet, index) for index in range(packet.size_flits)]
