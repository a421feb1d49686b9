"""The wormhole network: flit movement across routers, cycle by cycle.

Scheduling model (one call to :meth:`WormholeNetwork.step` = one clock
cycle):

* every outgoing **physical link** moves at most one flit per cycle; its
  virtual channels are served round-robin;
* an outgoing **channel** (link + VC) is owned by at most one packet from
  the head flit until the tail flit has crossed it (wormhole allocation);
  free channels are granted round-robin among the requesting input buffers
  and injection queues of the upstream router;
* a flit advances only when the downstream input buffer of the channel has
  a free slot (credit-based flow control with zero credit latency); the
  final hop ejects directly into the destination network interface, which
  is never back-pressured;
* a flit moves at most one hop per cycle.

These rules are exactly the preconditions of the CDG-based deadlock
analysis: packets hold channels while waiting for the next channel of their
route, so a cyclic channel dependency can (and under pressure does) turn
into a cyclic wait.

Packets enter through ``flow_table`` and ``enqueue``, the surface the
simulator's one injection loop drives on every engine.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.errors import SimulationError
from repro.model.channels import Channel, Link
from repro.model.design import NocDesign
from repro.simulation.flit import Flit, Packet, make_flits
from repro.simulation.router import Router, SourceKey, buffer_source, injection_source
from repro.simulation.stats import SimulationStats


#: ``flow_table`` keys of traffic that never enters the network: a flow
#: between cores behind one switch, and a flow the degraded design cannot
#: route (fault injection; its packets are lost at the NI).
LOCAL_FLOW = -1
UNROUTED_FLOW = -2


def build_flow_table(design: NocDesign, queue_keys: Optional[Mapping[str, Any]] = None):
    """Flow name -> (queue key, packet size); routed flows key by ``queue_keys`` or name."""
    table: Dict[str, Tuple[Any, int]] = {}
    for flow in design.traffic.flows:
        if design.switch_of(flow.src) == design.switch_of(flow.dst):
            key = LOCAL_FLOW
        elif not design.routes.has_route(flow.name):
            key = UNROUTED_FLOW
        else:
            key = flow.name if queue_keys is None else queue_keys[flow.name]
        table[flow.name] = (key, flow.packet_size_flits)
    return table


class WormholeNetwork:
    """All routers of a design plus the global flit-movement scheduler."""

    def __init__(self, design: NocDesign, *, buffer_depth: int = 4):
        self.design = design
        self.buffer_depth = buffer_depth
        self.routers: Dict[str, Router] = {}
        self._pending_arrivals: List[Tuple[Channel, Flit]] = []
        self._undelivered_flits = 0
        #: Packets injected but not yet fully delivered (or dropped), by id.
        #: Fault recovery uses this to watch in-flight packets drain.
        self._live_packets: Dict[int, Packet] = {}
        self._build()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _build(self) -> None:
        topology = self.design.topology
        for switch in topology.switches:
            self.routers[switch] = Router(switch, self.buffer_depth)
        for channel in topology.channels():
            self.routers[channel.dst].add_input_channel(channel)
            self.routers[channel.src].add_output_channel(channel)
        for flow in self.design.traffic.flows:
            if not self.design.routes.has_route(flow.name):
                continue
            source_switch = self.design.switch_of(flow.src)
            self.routers[source_switch].add_injection_flow(flow.name)
        self.flow_table = build_flow_table(self.design)

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def enqueue(self, flow_name: str, pid: int, size: int, created: int) -> None:
        """Queue packet ``pid`` of a routed flow as a :class:`Packet` on its route."""
        route = self.design.routes.route(flow_name).channels
        self.inject(Packet(pid, flow_name, route, size, created))

    def inject(self, packet: Packet) -> None:
        """Queue all flits of ``packet`` at its source router."""
        source_switch = self.design.switch_of(
            self.design.traffic.flow(packet.flow_name).src
        )
        router = self.routers[source_switch]
        if packet.flow_name not in router.injection_queues:
            raise SimulationError(
                f"flow {packet.flow_name!r} has no injection queue at {source_switch!r}"
            )
        self._live_packets[packet.packet_id] = packet
        for flit in make_flits(packet):
            router.injection_queues[packet.flow_name].append(flit)
            self._undelivered_flits += 1

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def undelivered_flits(self) -> int:
        """Flits injected but not yet ejected at their destination.

        Maintained as an O(1) counter (incremented at injection,
        decremented at final-hop delivery), so the simulator's drain loop
        can test "everything in flight has been delivered" each cycle
        without walking every router's buffers and injection queues.
        Always equals ``flits_in_network() + flits_pending_injection()``.
        """
        return self._undelivered_flits

    def flits_in_network(self) -> int:
        """Flits stored in input buffers (excludes injection queues)."""
        return sum(router.buffered_flits() for router in self.routers.values())

    def flits_pending_injection(self) -> int:
        """Flits still waiting in injection queues."""
        return sum(router.pending_injection_flits() for router in self.routers.values())

    def buffer_of(self, channel: Channel):
        """The downstream input buffer of ``channel``."""
        return self.routers[channel.dst].input_buffers[channel]

    def wait_for_edges(self) -> List[Tuple[Channel, Channel]]:
        """Channel wait-for edges: occupied channel -> channel its head flit needs.

        Used by the deadlock detector: a cycle among *blocked* channels is a
        wormhole deadlock.
        """
        edges: List[Tuple[Channel, Channel]] = []
        for router in self.routers.values():
            for channel, buffer in router.input_buffers.items():
                head = buffer.peek()
                if head is None:
                    continue
                wanted = head.next_channel
                if wanted is not None:
                    edges.append((channel, wanted))
        return edges

    # ------------------------------------------------------------------
    # fault recovery support
    # ------------------------------------------------------------------
    def is_packet_live(self, packet_id: int) -> bool:
        """True while the packet has undelivered flits (and was not dropped)."""
        return packet_id in self._live_packets

    def live_packet_ids(self) -> Set[int]:
        """Ids of every packet currently in flight (copy)."""
        return set(self._live_packets)

    def drop_flows(self, flow_names: Iterable[str]) -> Tuple[int, int]:
        """Remove every in-flight packet of the named flows.

        Fault recovery calls this for flows whose route changed (or
        vanished): their flits were emitted against the old route and can
        no longer be forwarded consistently.  Clears the flows' injection
        queues, drains every input buffer occupied by a doomed packet and
        releases the output channels it owns.  Returns ``(packets, flits)``
        dropped, counting only undelivered flits.
        """
        names = set(flow_names)
        doomed = {
            pid
            for pid, packet in self._live_packets.items()
            if packet.flow_name in names
        }
        if not doomed:
            return (0, 0)
        dropped_flits = 0
        for router in self.routers.values():
            for name, queue in router.injection_queues.items():
                if name in names and queue:
                    dropped_flits += len(queue)
                    queue.clear()
            for buffer in router.input_buffers.values():
                if buffer.current_packet_id in doomed:
                    dropped_flits += buffer.drain()
            for channel, owner in router.output_owner.items():
                if owner in doomed:
                    router.output_owner[channel] = None
                    router.output_source[channel] = None
        self._undelivered_flits -= dropped_flits
        for pid in doomed:
            del self._live_packets[pid]
        return (len(doomed), dropped_flits)

    def sync_with_design(self) -> None:
        """Reconcile the router state with the design's current topology/routes.

        Fault recovery mutates the design in place (links removed/restored,
        flows re-routed, deadlock removal adding VCs); this brings the
        live network structures back in line:

        * input buffers / output slots of vanished channels are deleted
          (recovery drops the affected packets first, so they are empty)
          and slots for new channels are created;
        * a link whose last output channel vanished loses its round-robin
          pointer, so a later restore starts from VC 0 exactly like a
          freshly built network (and like the compiled engine);
        * each router's input-buffer dict is re-sorted so the wait-for-edge
          iteration order — which feeds the deadlock verdict — matches a
          freshly built network;
        * injection queues mirror the currently *routed* flows (an
          unrouted flow must not take part in arbitration), and the
          ``flow_table`` is rebuilt to match.
        """
        topology = self.design.topology
        channel_set = set(topology.channels())
        for router in self.routers.values():
            for channel in list(router.input_buffers):
                if channel not in channel_set:
                    del router.input_buffers[channel]
            for channel in list(router.output_owner):
                if channel not in channel_set:
                    del router.output_owner[channel]
                    del router.output_source[channel]
                    del router.alloc_pointer[channel]
            live_links = {channel.link for channel in router.output_owner}
            for link in list(router.link_pointer):
                if link not in live_links:
                    del router.link_pointer[link]
        for channel in topology.channels():
            dst_router = self.routers[channel.dst]
            if channel not in dst_router.input_buffers:
                dst_router.add_input_channel(channel)
            src_router = self.routers[channel.src]
            if channel not in src_router.output_owner:
                src_router.add_output_channel(channel)
        for router in self.routers.values():
            router.input_buffers = dict(sorted(router.input_buffers.items()))
            for name in list(router.injection_queues):
                if not self.design.routes.has_route(name):
                    del router.injection_queues[name]
        for flow in self.design.traffic.flows:
            if not self.design.routes.has_route(flow.name):
                continue
            router = self.routers[self.design.switch_of(flow.src)]
            if flow.name not in router.injection_queues:
                router.add_injection_flow(flow.name)
        self.flow_table = build_flow_table(self.design)

    # ------------------------------------------------------------------
    # one simulation cycle
    # ------------------------------------------------------------------
    def step(self, cycle: int, stats: SimulationStats) -> int:
        """Advance the network by one cycle; returns the number of flit moves.

        The cycle is evaluated in two phases: every router decides and
        commits its transfers against the *start-of-cycle* buffer state (a
        flit sent this cycle is parked in ``_pending_arrivals``), and only
        after all routers have been served are the arrivals pushed into the
        downstream buffers.  Without this, a flit could traverse a buffer
        that another router already inspected this cycle, making the
        schedule depend on the processing order of the switches.
        """
        moved_flits: Set[int] = set()
        self._pending_arrivals: List[Tuple[Channel, Flit]] = []
        transfers = 0
        for switch in sorted(self.routers):
            transfers += self._step_router(self.routers[switch], cycle, stats, moved_flits)
        for channel, flit in self._pending_arrivals:
            self.buffer_of(channel).push(flit)
        self._pending_arrivals = []
        stats.flit_transfers += transfers
        return transfers

    # ------------------------------------------------------------------
    def _step_router(
        self,
        router: Router,
        cycle: int,
        stats: SimulationStats,
        moved_flits: Set[int],
    ) -> int:
        transfers = 0
        out_links = sorted({channel.link for channel in router.output_owner})
        for link in out_links:
            channels = sorted(
                (c for c in router.output_owner if c.link == link),
                key=lambda c: c.vc,
            )
            if not channels:
                continue
            start = router.link_pointer[link] % len(channels)
            ordered = channels[start:] + channels[:start]
            for channel in ordered:
                if self._try_transfer(router, channel, cycle, stats, moved_flits):
                    transfers += 1
                    # one flit per physical link per cycle; advance the VC
                    # round-robin pointer past the channel that was served
                    router.link_pointer[link] = (channels.index(channel) + 1) % len(channels)
                    break
        return transfers

    def _try_transfer(
        self,
        router: Router,
        channel: Channel,
        cycle: int,
        stats: SimulationStats,
        moved_flits: Set[int],
    ) -> bool:
        """Attempt to move one flit over ``channel``; returns True on success."""
        source = self._resolve_owner(router, channel)
        if source is None:
            return False
        flit = router.source_head(source)
        if flit is None:
            return False
        if id(flit) in moved_flits:
            return False
        if flit.next_channel != channel:
            return False
        if flit.packet.packet_id != router.output_owner[channel]:
            return False

        is_last_hop = flit.hops_done == len(flit.packet.route) - 1
        if not is_last_hop:
            downstream = self.buffer_of(channel)
            if not downstream.can_accept(flit):
                return False

        # Commit the transfer.
        router.pop_source(source)
        flit.hops_done += 1
        moved_flits.add(id(flit))
        stats.channel_busy_cycles[channel] = stats.channel_busy_cycles.get(channel, 0) + 1
        if flit.is_tail:
            router.output_owner[channel] = None
            router.output_source[channel] = None
        if is_last_hop:
            stats.flits_delivered += 1
            self._undelivered_flits -= 1
            if flit.is_tail:
                flit.packet.delivered_cycle = cycle
                stats.packets_delivered += 1
                stats.latencies.append(flit.packet.latency)
                self._live_packets.pop(flit.packet.packet_id, None)
        else:
            self._pending_arrivals.append((channel, flit))
        return True

    def _resolve_owner(self, router: Router, channel: Channel) -> Optional[SourceKey]:
        """Current source feeding ``channel``, allocating it when it is free."""
        if router.output_owner[channel] is not None:
            return router.output_source[channel]

        # Switch/VC allocation: find a source whose head flit is a head flit
        # requesting this channel, round-robin over the router's sources.
        sources = router.all_sources()
        if not sources:
            return None
        start = router.alloc_pointer[channel] % len(sources)
        ordered = sources[start:] + sources[:start]
        for offset, source in enumerate(ordered):
            head = router.source_head(source)
            if head is None or not head.is_head:
                continue
            if head.next_channel != channel:
                continue
            router.output_owner[channel] = head.packet.packet_id
            router.output_source[channel] = source
            router.alloc_pointer[channel] = (start + offset + 1) % len(sources)
            return source
        return None
