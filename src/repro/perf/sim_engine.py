"""Compiled wormhole simulation engine: flat arrays instead of objects.

The seed simulator (:mod:`repro.simulation`) walks Python objects every
cycle: each router re-sorts its output links and channels, rebuilds its
source list (two ``sorted()`` calls per allocation attempt) and peeks
per-flit ``Flit`` objects through dictionaries of ``Channel`` dataclass
keys.  That is the right reference implementation and the wrong inner
loop.  This module applies the PR 3/PR 4 playbook to it:

* a :class:`SimulationTemplate` — the static, int-relabelled compilation of
  a design (the interned channel table, the per-router link/VC groups and
  arbitration source lists in the exact legacy orders, and the per-flow
  precompiled channel-id routes).  It is cached on the design's
  :class:`~repro.perf.design_context.DesignContext`, so a load–latency
  sweep compiles the design once and reuses the template across all its
  simulation runs (``counters.sim_template_builds`` / ``_reuses``);
* a :class:`CompiledNetwork` over flat arrays: per-channel occupancy
  ranges, reservation/ownership/credit state and round-robin pointers are
  plain ``list``\\ s of ints.  A virtual-channel buffer always holds a
  contiguous run of flits of one packet, so a buffer is four ints
  (``packet, lo, hi, hops``) instead of a deque of flit objects;
* a :class:`CompiledSimulator` whose per-cycle sweep iterates those arrays
  in precisely the legacy schedule — same router order, same per-link VC
  round-robin, same allocation rotation, same two-phase arrival commit —
  so it produces **field-identical** :class:`~repro.simulation.stats
  .SimulationStats` (enforced by ``simulate_design(..., cross_check=True)``
  and the equivalence suite in ``tests/perf/test_sim_engine.py``).

Switch allocation is indexed by request: the network keeps, per channel,
the number of sources whose head flit requests it right now, and the
sweep skips the round-robin source scan of an unowned channel whose count
is zero — the scan could only come back empty there.  On a typical load
most unowned channels are requested by nobody, so this removes most of the
per-cycle source checks without touching the scan's order or outcome (see
:class:`CompiledNetwork` for the invariant and where it is maintained).
Links are skipped the same way: a link whose last visit did nothing stays
dormant until an injection, an arrival or a freed credit could change that,
so a saturated cycle visits the few links that can act instead of all.

Registered as the ``"compiled"`` entry (the default) of
:data:`repro.api.registry.simulation_engines`; importing this module also
imports :mod:`repro.simulation.simulator`, which registers ``"legacy"``.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.api.registry import simulation_engines
from repro.errors import SimulationError
from repro.model.channels import Channel
from repro.model.design import NocDesign
from repro.perf.design_context import DesignContext, counters
from repro.simulation.simulator import ENGINE_COMPILED, Simulator, deliver_locally
from repro.simulation.traffic_gen import FlowTrafficGenerator

#: Source-code space: codes below the channel count are input buffers
#: (the code *is* the channel id); codes at or above it are injection
#: queues (``code - channel_count`` is the flow id).
_NO_SOURCE = -1


class SimulationTemplate:
    """Static int-relabelled compilation of one design for simulation.

    Everything here is immutable under simulation (it only depends on the
    topology, the core mapping and the routes), so one template serves any
    number of concurrent :class:`CompiledNetwork` instances.
    """

    __slots__ = (
        "design",
        "channels",
        "channel_id",
        "channel_count",
        "switches",
        "switch_index",
        "buf_router",
        "r_links",
        "link_slot",
        "link_slot_count",
        "r_sources",
        "flow_ids",
        "flow_routes",
        "flow_src_router",
        "wait_order",
        "flow_table",
        "routes_version",
    )

    def __init__(self, design: NocDesign):
        self.design = design
        topology = design.topology
        channels = topology.channels()  # sorted copy
        self.channels: List[Channel] = channels
        self.channel_id: Dict[Channel, int] = {c: i for i, c in enumerate(channels)}
        self.channel_count = len(channels)

        # Sweep order: the legacy network serves routers in sorted-name
        # order, so sweep ids are assigned in that order.
        self.switches: List[str] = sorted(topology.switches)
        self.switch_index: Dict[str, int] = {
            name: i for i, name in enumerate(self.switches)
        }
        self.buf_router: List[int] = [self.switch_index[c.dst] for c in channels]

        # Per-router output structure: links in Link sort order, each link's
        # channels in VC order — the exact iteration of the legacy
        # ``_step_router``.  Every (router, link) pair gets a dense slot for
        # its VC round-robin pointer; slots ascend in sweep order, and
        # ``link_slot`` maps each channel to the slot of its link.
        out_channels: List[List[int]] = [[] for _ in self.switches]
        for cid, channel in enumerate(channels):
            out_channels[self.switch_index[channel.src]].append(cid)
        r_links: List[List[Tuple[Tuple[int, ...], int]]] = []
        link_slot = [0] * self.channel_count
        slot = 0
        for rid in range(len(self.switches)):
            by_link: Dict = {}
            for cid in out_channels[rid]:
                by_link.setdefault(channels[cid].link, []).append(cid)
            groups = []
            for link in sorted(by_link):
                chs = tuple(sorted(by_link[link], key=lambda i: channels[i].vc))
                for cid in chs:
                    link_slot[cid] = slot
                groups.append((chs, slot))
                slot += 1
            r_links.append(groups)
        self.r_links = r_links
        self.link_slot = link_slot
        self.link_slot_count = slot

        # Routed flows, dense ids in sorted-name order (matches the order
        # injection queues are created — and therefore arbitrated — in the
        # legacy router: ``sorted(self.injection_queues)``).
        self.flow_ids: Dict[str, int] = {}
        self.flow_routes: List[Tuple[int, ...]] = []
        self.flow_src_router: List[int] = []
        for flow in design.traffic.flows:  # sorted by name
            if not design.routes.has_route(flow.name):
                continue
            fid = len(self.flow_routes)
            self.flow_ids[flow.name] = fid
            self.flow_routes.append(
                tuple(self.channel_id[c] for c in design.routes.route(flow.name).channels)
            )
            self.flow_src_router.append(self.switch_index[design.switch_of(flow.src)])

        # Per-router arbitration sources in the legacy ``all_sources``
        # order: input buffers sorted by channel, then injection queues
        # sorted by flow name.  Buffer code = channel id; injection code =
        # channel_count + flow id.
        in_buffers: List[List[int]] = [[] for _ in self.switches]
        for cid in range(self.channel_count):
            in_buffers[self.buf_router[cid]].append(cid)  # already channel-sorted
        inj_flows: List[List[int]] = [[] for _ in self.switches]
        for name in sorted(self.flow_ids):
            fid = self.flow_ids[name]
            inj_flows[self.flow_src_router[fid]].append(fid)
        self.r_sources: List[Tuple[int, ...]] = [
            tuple(in_buffers[rid] + [self.channel_count + fid for fid in inj_flows[rid]])
            for rid in range(len(self.switches))
        ]

        # Wait-for-edge iteration order: the legacy ``wait_for_edges`` walks
        # routers in *insertion* order (``topology.switches``) and each
        # router's input buffers in channel-add order (globally sorted
        # channels filtered by destination).
        self.wait_order: List[int] = []
        for switch in topology.switches:
            rid = self.switch_index[switch]
            self.wait_order.extend(in_buffers[rid])

        # Injection table of fault-free runs: flow name -> (flow id, packet
        # size), flow id -1 for traffic between cores behind one switch,
        # which never enters the network.
        self.flow_table: Dict[str, Tuple[int, int]] = {}
        for flow in design.traffic.flows:
            if design.switch_of(flow.src) == design.switch_of(flow.dst):
                self.flow_table[flow.name] = (-1, flow.packet_size_flits)
            elif flow.name in self.flow_ids:
                self.flow_table[flow.name] = (self.flow_ids[flow.name], flow.packet_size_flits)

        self.routes_version = design.routes.version

    def is_current(self) -> bool:
        """True while the design's channels and routes match this template."""
        return (
            self.channel_count == self.design.topology.channel_count
            and self.routes_version == self.design.routes.version
        )

    @classmethod
    def of(cls, design: NocDesign) -> "SimulationTemplate":
        """The design's cached template, (re)compiled when stale.

        Cached on the design's :class:`DesignContext`, so repeated
        simulations of one design (e.g. a load–latency sweep) compile the
        static structure once.
        """
        context = DesignContext.of(design)
        template = getattr(context, "sim_template", None)
        if template is not None and template.design is design and template.is_current():
            counters.sim_template_reuses += 1
            return template
        template = cls(design)
        context.sim_template = template
        counters.sim_template_builds += 1
        return template


class CompiledNetwork:
    """Flat-array wormhole network state, schedule-identical to the legacy one.

    Exposes the same surface the simulator and the deadlock monitor use
    (``inject``, ``step``, ``undelivered_flits``, ``flits_in_network``,
    ``flits_pending_injection``, ``wait_for_edges``), so
    :class:`~repro.simulation.deadlock.DeadlockMonitor` and the shared run
    loop work unchanged.

    **No flit is seen twice in one sweep**, so the sweep keeps no set of
    moved flits (``WormholeNetwork`` keeps its ``moved_flits`` as the
    reference): a source feeds only its head flit's target channel, a
    channel moves at most one flit per cycle, and arrivals land after the
    sweep.  A flit that moved is therefore parked in the pending list, out
    of every source, until the sweep is over.

    **Request counts.** ``req[c]`` is the number of sources in
    ``r_sources[router of c]`` that pass the allocation scan's own request
    test for ``c``: a non-empty input buffer with ``buf_lo == 0`` whose
    head targets ``c`` (``route[hops] == c``), or a non-empty injection
    queue whose head packet is at flit 0 and whose ``route[0]`` is ``c``.
    It changes in exactly four places:

    * +1 at ``route[0]`` when :meth:`inject` fills an empty queue;
    * -1 at ``c`` when a flit with index 0 leaves its source over ``c``;
    * +1 at ``c`` when a queue's head packet finishes on ``c`` and another
      packet of the flow is waiting behind it;
    * +1 at ``route[hops]`` when a flit with index 0 lands in a buffer.

    :meth:`drop_flows` and :meth:`sync_with_design` recount from scratch
    (:meth:`recount`).

    The sweep skips the source scan of an unowned channel whose count is
    zero.  That is exact because requests are start-of-cycle facts: a
    source drains only over its one target channel, each channel is
    visited at most once per cycle, arrivals land after the sweep, and
    injection and fault recovery run before it — so the count seen when
    ``c`` is visited equals the number of sources the legacy scan would
    accept.  The two ways of getting it wrong are not alike: an
    *undercount* skips a scan that had a winner and makes the engines
    diverge, while an *overcount* stays correct and only scans again for
    nothing (silently losing the speedup — ``tests/perf/test_sim_engine.py``
    pins the count to an independent walk at every cycle).

    **Dormant links.** ``awake[slot]`` is False while a visit of the link
    in ``slot`` could neither transfer a flit nor allocate a channel, and
    the sweep skips such a link.  A visit that does neither changes no
    state, and its outcome depends only on the link's own channels
    (ownership, pointers — changed by its own visits alone), on the head
    flits of the sources that feed them, and on the credit of their
    downstream buffers.  So the link goes dormant after such a visit, and
    exactly three events wake it:

    * :meth:`inject` fills an empty queue whose route starts on the link;
    * an arrival lands in a buffer whose flits next hop over the link;
    * a flit leaves the input buffer of one of the link's channels.

    :meth:`recount` (called by :meth:`drop_flows` and
    :meth:`sync_with_design`) wakes every link.  The third event can wake a
    link later in the same sweep, and then the link is visited in that
    sweep: that is exactly when the dense sweep would see the freed credit,
    because slots ascend in sweep order and a credit freed by an earlier
    link is visible to every later one.  A link earlier in the sweep sees
    the credit on the next cycle, as in the dense sweep.  Forgetting a wake
    makes the engines diverge; ``tests/perf/test_sim_engine.py`` walks
    every dormant link at every cycle and finds nothing to do there.
    """

    def __init__(self, design: NocDesign, *, buffer_depth: int = 4):
        self.design = design
        self.buffer_depth = buffer_depth
        t = SimulationTemplate.of(design)
        self.template = t
        C = t.channel_count
        # Buffer state per channel: current packet (reservation, -1 free),
        # flit-index range [lo, hi) of the stored contiguous run, and the
        # hop count of the stored flits (all flits in a buffer share it).
        self.buf_pkt = [-1] * C
        self.buf_lo = [0] * C
        self.buf_hi = [0] * C
        self.buf_hops = [0] * C
        # Wormhole ownership + arbitration state per outgoing channel.
        self.out_owner = [-1] * C
        self.out_src = [_NO_SOURCE] * C
        self.alloc_ptr = [0] * C
        self.link_ptr = [0] * t.link_slot_count
        # Per channel: sources whose head flit requests it; per link slot:
        # whether the sweep visits it (see the class docstring).  The
        # network starts empty.
        self.req = [0] * C
        self.awake = [True] * t.link_slot_count
        # Channel transfer counters (materialised into stats at the end).
        self.busy = [0] * C
        # Injection queues: packet ids per flow plus the head packet's next
        # flit index.
        self.inj_pkts: List[Deque[int]] = [deque() for _ in t.flow_routes]
        self.inj_head_idx: List[int] = [0] * len(t.flow_routes)
        # Packet records (id -> flow id / size / creation cycle).
        self.pkt_flow: Dict[int, int] = {}
        self.pkt_size: Dict[int, int] = {}
        self.pkt_created: Dict[int, int] = {}
        # Flit accounting.
        self.r_flits = [0] * len(t.switches)
        self._buffered = 0
        self._pending_injection = 0
        self._undelivered = 0
        self._pending: List[Tuple[int, int, int, int, int]] = []
        # Transfer counts of channels that left the topology mid-run (fault
        # injection); folded into the stats alongside the live counters.
        self._retired_busy: Dict[Channel, int] = {}

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def inject(self, packet) -> None:
        """Queue all flits of ``packet`` at its source router."""
        fid = self.template.flow_ids.get(packet.flow_name)
        if fid is None:
            source_switch = self.design.switch_of(
                self.design.traffic.flow(packet.flow_name).src
            )
            raise SimulationError(
                f"flow {packet.flow_name!r} has no injection queue at {source_switch!r}"
            )
        self.enqueue(fid, packet.packet_id, packet.size_flits, packet.created_cycle)

    def enqueue(self, fid: int, pid: int, size: int, created: int) -> None:
        """Queue packet ``pid`` of flow ``fid`` (``size`` flits, created at ``created``).

        The one way packets enter a compiled network: :meth:`inject`
        delegates here, and fault-free compiled runs call it straight from
        the template's ``flow_table``, without building a packet object.
        """
        self.pkt_flow[pid] = fid
        self.pkt_size[pid] = size
        self.pkt_created[pid] = created
        queue = self.inj_pkts[fid]
        if not queue:
            first = self.template.flow_routes[fid][0]
            self.req[first] += 1
            self.awake[self.template.link_slot[first]] = True
        queue.append(pid)
        self._undelivered += size
        self._pending_injection += size
        self.r_flits[self.template.flow_src_router[fid]] += size

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def undelivered_flits(self) -> int:
        """Flits injected but not yet ejected (O(1) counter)."""
        return self._undelivered

    def flits_in_network(self) -> int:
        """Flits stored in input buffers (excludes injection queues)."""
        return self._buffered

    def flits_pending_injection(self) -> int:
        """Flits still waiting in injection queues."""
        return self._pending_injection

    def count_flits_by_walk(self) -> Tuple[int, int]:
        """(buffered, pending-injection) flits recounted from the raw state.

        The regression oracle for the O(1) counters: a full walk over every
        buffer range and injection queue, never used on the hot path.
        """
        buffered = sum(
            hi - lo for hi, lo in zip(self.buf_hi, self.buf_lo)
        )
        pending = 0
        for fid, queue in enumerate(self.inj_pkts):
            if not queue:
                continue
            pending += sum(self.pkt_size[pid] for pid in queue)
            pending -= self.inj_head_idx[fid]
        return buffered, pending

    def wait_for_edges(self) -> List[Tuple[Channel, Channel]]:
        """Channel wait-for edges, in the legacy iteration order."""
        t = self.template
        channels = t.channels
        flow_routes = t.flow_routes
        edges: List[Tuple[Channel, Channel]] = []
        for cid in t.wait_order:
            if self.buf_hi[cid] == self.buf_lo[cid]:
                continue
            route = flow_routes[self.pkt_flow[self.buf_pkt[cid]]]
            hops = self.buf_hops[cid]
            if hops >= len(route):  # pragma: no cover - buffers never hold arrived flits
                continue
            edges.append((channels[cid], channels[route[hops]]))
        return edges

    # ------------------------------------------------------------------
    # fault recovery support
    # ------------------------------------------------------------------
    def is_packet_live(self, packet_id: int) -> bool:
        """True while ``packet_id`` has undelivered flits in the network."""
        return packet_id in self.pkt_flow

    def live_packet_ids(self) -> set:
        """Ids of every packet currently queued or in flight."""
        return set(self.pkt_flow)

    def drop_flows(self, flow_names) -> Tuple[int, int]:
        """Discard every live packet of the given flows.

        Returns ``(packets_dropped, flits_dropped)`` where the flit count
        covers only undelivered flits.  Used by fault recovery before a
        route swap: a packet whose flow is re-routed mid-flight cannot
        finish its journey on the old path.
        """
        t = self.template
        doomed_fids = {t.flow_ids[n] for n in flow_names if n in t.flow_ids}
        doomed = {pid for pid, fid in self.pkt_flow.items() if fid in doomed_fids}
        if not doomed:
            return (0, 0)
        buf_pkt, buf_lo, buf_hi = self.buf_pkt, self.buf_lo, self.buf_hi
        for c in range(t.channel_count):
            if buf_pkt[c] in doomed:
                buf_pkt[c] = -1
                buf_lo[c] = 0
                buf_hi[c] = 0
            if self.out_owner[c] in doomed:
                self.out_owner[c] = -1
                self.out_src[c] = _NO_SOURCE
        for fid in doomed_fids:
            self.inj_pkts[fid].clear()
            self.inj_head_idx[fid] = 0
        for pid in doomed:
            del self.pkt_flow[pid]
            del self.pkt_size[pid]
            del self.pkt_created[pid]
        undelivered = self._undelivered
        self.recount()
        return (len(doomed), undelivered - self._undelivered)

    def recount(self) -> None:
        """Rederive every counter from the buffers and queues; wake all links.

        Recounts the flit counters (per router, buffered, pending and
        undelivered) and the allocation requests, and marks every link
        awake.  Called wherever fault recovery rewrote the raw state
        wholesale: :meth:`drop_flows` and :meth:`sync_with_design`.
        """
        t = self.template
        flow_routes = t.flow_routes
        buf_pkt, buf_lo, buf_hi, buf_hops = self.buf_pkt, self.buf_lo, self.buf_hi, self.buf_hops
        r_flits = [0] * len(t.switches)
        req = [0] * t.channel_count
        buffered = 0
        for s in range(t.channel_count):
            flits = buf_hi[s] - buf_lo[s]
            if flits:
                buffered += flits
                r_flits[t.buf_router[s]] += flits
                if buf_lo[s] == 0:
                    req[flow_routes[self.pkt_flow[buf_pkt[s]]][buf_hops[s]]] += 1
        pending = 0
        for fid, queue in enumerate(self.inj_pkts):
            if queue:
                pend = sum(self.pkt_size[pid] for pid in queue)
                pend -= self.inj_head_idx[fid]
                pending += pend
                r_flits[t.flow_src_router[fid]] += pend
                if self.inj_head_idx[fid] == 0:
                    req[flow_routes[fid][0]] += 1
        self.r_flits = r_flits
        self.req = req
        self._buffered = buffered
        self._pending_injection = pending
        self._undelivered = buffered + pending
        self.awake = [True] * t.link_slot_count

    def sync_with_design(self) -> None:
        """Recompile the template after a topology/route change and migrate.

        The fault-recovery drop rule guarantees that every surviving packet
        belongs to a flow whose route is unchanged, so migration is a pure
        relabelling: per-channel state is carried over by :class:`Channel`
        identity, source codes and flow ids are remapped by name, and the
        per-(router, link) VC round-robin pointers follow their link (a
        link that lost all channels restarts at VC 0, exactly like the
        legacy network dropping and re-creating its ``link_pointer``
        entry).
        """
        old = self.template
        design = self.design
        if (
            old.channels == design.topology.channels()
            and old.routes_version == design.routes.version
        ):
            return
        new = SimulationTemplate(design)
        DesignContext.of(design).sim_template = new
        counters.sim_template_builds += 1

        # Transfer counts of channels that no longer exist must still reach
        # the final stats (the legacy engine records them in place).
        new_ids = new.channel_id
        for o_cid, count in enumerate(self.busy):
            channel = old.channels[o_cid]
            if count and channel not in new_ids:
                self._retired_busy[channel] = (
                    self._retired_busy.get(channel, 0) + count
                )

        C = new.channel_count
        buf_pkt = [-1] * C
        buf_lo = [0] * C
        buf_hi = [0] * C
        buf_hops = [0] * C
        out_owner = [-1] * C
        out_src = [_NO_SOURCE] * C
        alloc_ptr = [0] * C
        busy = [0] * C
        old_flow_name = {fid: name for name, fid in old.flow_ids.items()}
        for n_cid, channel in enumerate(new.channels):
            o_cid = old.channel_id.get(channel)
            if o_cid is None:
                continue
            buf_pkt[n_cid] = self.buf_pkt[o_cid]
            buf_lo[n_cid] = self.buf_lo[o_cid]
            buf_hi[n_cid] = self.buf_hi[o_cid]
            buf_hops[n_cid] = self.buf_hops[o_cid]
            alloc_ptr[n_cid] = self.alloc_ptr[o_cid]
            busy[n_cid] = self.busy[o_cid]
            owner = self.out_owner[o_cid]
            if owner == -1:
                continue
            src = self.out_src[o_cid]
            if src < old.channel_count:
                new_src = new.channel_id.get(old.channels[src], -1)
            else:
                fid = new.flow_ids.get(old_flow_name[src - old.channel_count], -1)
                new_src = new.channel_count + fid if fid >= 0 else -1
            if new_src >= 0:
                out_owner[n_cid] = owner
                out_src[n_cid] = new_src

        # Per-(router, link) VC pointers follow their link across templates.
        old_link_ptr = {}
        for rid, groups in enumerate(old.r_links):
            for chs, slot in groups:
                old_link_ptr[(rid, old.channels[chs[0]].link)] = self.link_ptr[slot]
        link_ptr = [0] * new.link_slot_count
        for rid, groups in enumerate(new.r_links):
            for chs, slot in groups:
                link_ptr[slot] = old_link_ptr.get(
                    (rid, new.channels[chs[0]].link), 0
                )

        # Injection queues and packet records follow their flow by name
        # (flows that became unrouted had their queues cleared by
        # ``drop_flows`` before this sync).
        inj_pkts: List[Deque[int]] = [deque() for _ in new.flow_routes]
        inj_head = [0] * len(new.flow_routes)
        for name, o_fid in old.flow_ids.items():
            n_fid = new.flow_ids.get(name)
            if n_fid is not None:
                inj_pkts[n_fid] = self.inj_pkts[o_fid]
                inj_head[n_fid] = self.inj_head_idx[o_fid]
        self.pkt_flow = {
            pid: new.flow_ids[old_flow_name[o_fid]]
            for pid, o_fid in self.pkt_flow.items()
        }

        self.template = new
        self.buf_pkt, self.buf_lo, self.buf_hi, self.buf_hops = (
            buf_pkt,
            buf_lo,
            buf_hi,
            buf_hops,
        )
        self.out_owner, self.out_src = out_owner, out_src
        self.alloc_ptr, self.link_ptr = alloc_ptr, link_ptr
        self.busy = busy
        self.inj_pkts, self.inj_head_idx = inj_pkts, inj_head
        # Recount the O(1) counters against the migrated state.
        self.recount()

    # ------------------------------------------------------------------
    # one simulation cycle
    # ------------------------------------------------------------------
    def step(self, cycle: int, stats) -> int:
        """Advance by one cycle; returns the number of flit moves.

        Mirrors ``WormholeNetwork.step`` exactly: routers are served in
        sorted-switch order against start-of-cycle buffer state, committed
        transfers park in a pending list, and arrivals land after every
        router has been served.
        """
        t = self.template
        C = t.channel_count
        buf_pkt, buf_lo, buf_hi, buf_hops = self.buf_pkt, self.buf_lo, self.buf_hi, self.buf_hops
        out_owner, out_src = self.out_owner, self.out_src
        alloc_ptr, link_ptr = self.alloc_ptr, self.link_ptr
        req, awake, link_slot = self.req, self.awake, t.link_slot
        inj_pkts, inj_head = self.inj_pkts, self.inj_head_idx
        pkt_flow, pkt_size = self.pkt_flow, self.pkt_size
        flow_routes = t.flow_routes
        r_flits, r_sources = self.r_flits, t.r_sources
        busy = self.busy
        depth = self.buffer_depth
        pending = self._pending
        pending.clear()
        transfers = injected = delivered = 0
        latencies = stats.latencies
        pkt_created = self.pkt_created

        for rid, links in enumerate(t.r_links):
            if r_flits[rid] == 0:
                continue
            for chs, slot in links:
                if not awake[slot]:
                    continue  # nothing changed since a visit that did nothing
                n = len(chs)
                start = link_ptr[slot] % n
                allocated = False
                for k in range(n):
                    pos = start + k
                    if pos >= n:
                        pos -= n
                    c = chs[pos]

                    # --- resolve the source feeding channel c ---------
                    owner = out_owner[c]
                    if owner != -1:
                        source = out_src[c]
                    else:
                        if not req[c]:
                            continue  # no head flit requests c: no winner
                        # Switch/VC allocation: round-robin over the
                        # router's sources for a head flit requesting c.
                        sources = r_sources[rid]
                        m = len(sources)
                        source = _NO_SOURCE
                        if m:
                            astart = alloc_ptr[c] % m
                            for off in range(m):
                                spos = astart + off
                                if spos >= m:
                                    spos -= m
                                s = sources[spos]
                                if s < C:
                                    if buf_hi[s] == buf_lo[s] or buf_lo[s] != 0:
                                        continue  # empty, or head flit gone
                                    head_pkt = buf_pkt[s]
                                    if flow_routes[pkt_flow[head_pkt]][buf_hops[s]] != c:
                                        continue
                                else:
                                    fid = s - C
                                    queue = inj_pkts[fid]
                                    if not queue or inj_head[fid] != 0:
                                        continue
                                    head_pkt = queue[0]
                                    if flow_routes[fid][0] != c:
                                        continue
                                out_owner[c] = head_pkt
                                out_src[c] = s
                                apos = astart + off + 1
                                alloc_ptr[c] = apos - m if apos >= m else apos
                                source = s
                                owner = head_pkt
                                allocated = True
                                break
                        if source == _NO_SOURCE:
                            continue

                    # --- head flit of the source ----------------------
                    if source < C:
                        if buf_hi[source] == buf_lo[source]:
                            continue
                        pkt = buf_pkt[source]
                        idx = buf_lo[source]
                        hops = buf_hops[source]
                    else:
                        fid = source - C
                        queue = inj_pkts[fid]
                        if not queue:
                            continue
                        pkt = queue[0]
                        idx = inj_head[fid]
                        hops = 0

                    route = flow_routes[pkt_flow[pkt]]
                    last_hop = len(route) - 1
                    if hops > last_hop or route[hops] != c:
                        continue
                    if pkt != out_owner[c]:
                        continue

                    is_last = hops == last_hop
                    if not is_last:
                        # Credit check: the downstream buffer of c must have
                        # room and accept this packet (no interleaving).
                        if buf_hi[c] - buf_lo[c] >= depth:
                            continue
                        if buf_pkt[c] != -1 and buf_pkt[c] != pkt:
                            continue

                    # --- commit ---------------------------------------
                    tail = idx == pkt_size[pkt] - 1
                    if source < C:
                        buf_lo[source] = idx + 1
                        if tail:  # a buffer holds one packet: it is empty now
                            buf_pkt[source] = -1
                        # Credit freed upstream: wakes the feeding link, in
                        # this very sweep when it comes later.
                        awake[link_slot[source]] = True
                    else:
                        fid = source - C
                        if tail:
                            queue = inj_pkts[fid]
                            queue.popleft()
                            inj_head[fid] = 0
                            if queue:
                                req[c] += 1  # the next packet's head requests c
                        else:
                            inj_head[fid] = idx + 1
                        injected += 1
                    if idx == 0:
                        req[c] -= 1  # the head flit left its source
                    r_flits[rid] -= 1
                    busy[c] += 1
                    if tail:
                        out_owner[c] = -1
                        out_src[c] = _NO_SOURCE
                    if is_last:
                        delivered += 1
                        if tail:
                            stats.packets_delivered += 1
                            latencies.append(cycle - pkt_created[pkt])
                            # The packet fully left the network: free its
                            # records so memory stays O(in-flight packets),
                            # like the legacy engine's garbage-collected
                            # flit objects.
                            del pkt_flow[pkt]
                            del pkt_size[pkt]
                            del pkt_created[pkt]
                    else:
                        pending.append((c, pkt, idx, hops + 1, route[hops + 1]))
                    transfers += 1
                    apos = pos + 1
                    link_ptr[slot] = apos - n if apos >= n else apos
                    break
                else:
                    if not allocated:
                        awake[slot] = False  # a visit that did nothing

        # --- arrivals land after every router has been served ---------
        buf_router = t.buf_router
        for c, pkt, idx, hops, target in pending:
            if buf_pkt[c] == -1:
                buf_pkt[c] = pkt
                buf_lo[c] = idx
            buf_hi[c] = idx + 1
            buf_hops[c] = hops
            if idx == 0:
                req[target] += 1  # a new head flit
            awake[link_slot[target]] = True  # a flit to send over that link
            r_flits[buf_router[c]] += 1
        pending.clear()
        # Every transfer left a queue or a buffer and entered a buffer or
        # its destination.
        self._buffered += injected - delivered
        self._pending_injection -= injected
        self._undelivered -= delivered
        stats.flits_delivered += delivered
        stats.flit_transfers += transfers
        return transfers

    # ------------------------------------------------------------------
    def materialise_busy_cycles(self, stats) -> None:
        """Fold the per-channel transfer counters into the stats dict."""
        channels = self.template.channels
        record = stats.channel_busy_cycles
        for channel, count in self._retired_busy.items():
            record[channel] = record.get(channel, 0) + count
        for cid, count in enumerate(self.busy):
            if count:
                channel = channels[cid]
                record[channel] = record.get(channel, 0) + count


class CompiledSimulator(Simulator):
    """Flit-level wormhole simulation over the compiled network.

    Shares the run loop, traffic generation, deadlock monitoring and
    statistics of the legacy :class:`Simulator` — only the per-cycle
    network mechanics are replaced by the array sweep, which is what makes
    the two engines stats-identical by construction everywhere except the
    code under test.
    """

    def _build_network(self, design: NocDesign):
        return CompiledNetwork(design, buffer_depth=self.config.buffer_depth)

    def _inject_new_packets(self, cycle: int) -> None:
        """Queue the packets the generator creates at ``cycle``, by flow id.

        Replays :meth:`FlowTrafficGenerator.generate
        <repro.simulation.traffic_gen.FlowTrafficGenerator.generate>` without
        its packet objects: the same draws (``_firing``), the same packet
        ids in the same order, and the same local deliveries as the packet
        path of :meth:`Simulator._inject_new_packets`.
        """
        generator = self.generator
        # Fault recovery re-routes flows mid-run and a trace replay builds
        # its own packets: those runs inject through the packet path.
        if self._recovery is not None or (
            type(generator).generate is not FlowTrafficGenerator.generate
        ):
            return super()._inject_new_packets(cycle)
        fired = generator._firing()
        if not fired:
            return
        stats = self.stats
        table = self.network.template.flow_table
        enqueue = self.network.enqueue
        pid = generator._next_packet_id
        for name in fired:
            fid, size = table[name]
            if fid < 0:
                deliver_locally(stats, size)
            else:
                enqueue(fid, pid, size, cycle)
            pid += 1
        generator._next_packet_id = pid
        stats.packets_injected += len(fired)

    def run(self, max_cycles: int = 10_000, **kwargs):
        try:
            return super().run(max_cycles, **kwargs)
        finally:
            # Fold the array counters into the stats dict even when a
            # deadlock is raised (the legacy engine records them in place).
            self.network.materialise_busy_cycles(self.stats)


simulation_engines.register(ENGINE_COMPILED, CompiledSimulator)

# This module is the simulation_engines registry provider: importing the
# batched engine here (after CompiledSimulator exists, which it registers
# under its own name) makes all three built-ins register together.
from repro.perf import batch_engine as _batch_engine  # noqa: E402,F401
