"""Batched wormhole simulation: B runs of one design, injected as one array program.

A latency curve, a seed sweep or a scenario comparison is a *grid* of
simulations of one design that differ only in load point, seed or traffic
pattern.  :class:`~repro.perf.sim_engine.CompiledSimulator` made one run
cheap; this module makes the grid cheap: :func:`run_batch` compiles B
:class:`~repro.perf.sim_engine.SimulationTemplate`-compatible runs into a
single structure-of-arrays numpy program — every per-channel buffer, credit
counter, ownership/arbitration pointer and per-flow injection queue head
lives in one flat ``(B * n,)`` array — and advances all B lanes per cycle
through the injection phase with masked vector sweeps.

**Drain handoff.** Injection is what the lanes share (one draw stream per
seed, one vector sweep per cycle).  Once it ends they share nothing, and
they thin out fast: low loads drain in tens of cycles while saturated
lanes run for thousands, where a few lanes would pay the array program's
fixed cost per cycle.  So when no injection is left, each lane still
holding flits becomes a :class:`~repro.perf.sim_engine.CompiledNetwork`
built from its state (:meth:`_BatchProgram.lane_network`: buffers,
ownership, both round-robin pointers, queues, live packet records, busy
counters; the flit counters and requests are recounted) and drains in
the compiled run loop's own drain
(:func:`~repro.simulation.simulator.drain_network`), watchdog count
included.  A lane's drain is therefore the ``compiled`` engine's drain,
dormant links and all.  The switch point is structural, not a tuned lane
width.  Only a lane that deadlocks during injection finishes inside the
array program; it is then sliced out (:meth:`_BatchProgram._compact`).

Exactness, not approximation: the program reproduces the legacy schedule
**field-identically** (the same :class:`~repro.simulation.stats
.SimulationStats` the ``compiled`` and ``legacy`` engines produce, enforced
by ``cross_check=True`` and the equivalence suite, which compares lanes
against both).  The key facts that
make the per-cycle sweep vectorisable are proved against
:meth:`CompiledNetwork.step <repro.perf.sim_engine.CompiledNetwork.step>`:

* *allocation and source facts are start-of-cycle exact* — a buffer is
  drained only at the link slot of its one target channel, and an
  injection queue only at the slot of its route's first channel, which is
  exactly where those facts are read; so switch allocation for every
  channel is one scatter-min over ``(priority, source-position)`` keys
  (the lexicographic argmin realising the legacy round-robin);
* *link winners move only earlier* — credit state can only relax during a
  sweep (a downstream buffer drains at most once per cycle, arrivals land
  after all routers), so the start-of-cycle winner per (lane, link) from a
  second scatter-min over ``(rotation, vc)`` keys is final unless some
  earlier-rotation VC was credit-blocked in a *relaxable* way by a buffer
  that drains at an earlier slot.  Those few (lane, link) pairs are marked
  dirty and replayed exactly, in slot order, against the already-final
  winners of earlier slots; everything else commits vectorised.

Injection is batched too: all fast-path generators (``flows`` and the
spatial re-weightings) consume one uniform draw per eligible flow per
cycle in sorted-flow order, so lanes sharing a seed share a single
transplanted Mersenne-Twister stream (``numpy.random.RandomState`` seeded
with ``random.Random(seed).getstate()`` is bit-identical to the scalar
generator) and one ``random_sample`` serves the whole seed group.
Temporal scenarios (``bursty``, ``trace``) fall back to calling their own
``generate`` per lane — still inside the batched network program.

:class:`BatchedSimulator` is the ``"batched"`` entry of
:data:`repro.api.registry.simulation_engines`: a drop-in single-lane
(B = 1) simulator for the registry contract.  Configurations the batch
cannot express — fault schedules mutate topology and routes mid-run —
transparently construct a :class:`CompiledSimulator` instead, with a
structured ``[noc-lint {...}]`` warning, so correctness never depends on
batch eligibility.  numpy itself is imported lazily (see
:func:`_numpy`): the rest of the package works without it.
"""

from __future__ import annotations

import warnings
from collections import deque
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.api.registry import simulation_engines
from repro.errors import DeadlockDetected, SimulationError
from repro.lint.findings import structured_warning
from repro.model.design import NocDesign
from repro.perf.design_context import DesignContext
from repro.perf.sim_engine import CompiledNetwork, CompiledSimulator, SimulationTemplate
from repro.simulation.deadlock import DeadlockMonitor, confirm_wait_cycle
from repro.simulation.simulator import (
    SimulationConfig,
    Simulator,
    drain_network,
    make_traffic_generator,
    stats_divergences,
)
from repro.simulation.stats import SimulationStats
from repro.simulation.traffic_gen import FlowTrafficGenerator

ENGINE_BATCHED = "batched"

#: Sentinel larger than any packed arbitration key.
_BIG = 2**30

_np = None


def _numpy():
    """The lazily imported numpy module.

    The batched engine is the only part of the package that needs numpy;
    importing it here (not at module import) keeps ``import repro`` and
    every other engine working on a numpy-less interpreter, with a clear
    error the moment the ``"batched"`` engine is actually asked to run.
    """
    global _np
    if _np is None:
        try:
            import numpy
        except ImportError as exc:  # pragma: no cover - exercised via tests
            raise SimulationError(
                "the 'batched' simulation engine requires numpy (declared "
                "in setup.py install_requires) but it is not importable; "
                "install numpy or select another simulation engine "
                "(e.g. sim_engine='compiled')"
            ) from exc
        _np = numpy
    return _np


# ----------------------------------------------------------------------
# static compilation
# ----------------------------------------------------------------------


class BatchedTemplate:
    """Numpy view of one design's :class:`SimulationTemplate`.

    Static under simulation, shared by any number of concurrent batch
    programs, and cached on the design's :class:`DesignContext` alongside
    the scalar template it is derived from.
    """

    def __init__(self, template: SimulationTemplate):
        np = _numpy()
        self.template = template
        C = template.channel_count
        S = template.link_slot_count
        R = len(template.switches)
        F = len(template.flow_routes)
        self.C, self.S, self.R, self.F = C, S, R, F

        # Link structure: every channel's dense link slot (the scalar
        # template's map), its VC position within the link, and the inverse
        # (slot, position) -> channel map.
        slot_of = np.array(template.link_slot, np.int32)
        pos_in_link = np.zeros(C, np.int32)
        link_n = np.zeros(max(S, 1), np.int32)
        link_router = np.zeros(max(S, 1), np.int32)
        nmax = 1
        for links in template.r_links:
            for chs, _slot in links:
                nmax = max(nmax, len(chs))
        slot_vcs = np.zeros((max(S, 1), nmax), np.int32)
        for rid, links in enumerate(template.r_links):
            for chs, slot in links:
                link_router[slot] = rid
                link_n[slot] = len(chs)
                for pos, cid in enumerate(chs):
                    pos_in_link[cid] = pos
                    slot_vcs[slot, pos] = cid
        self.slot_of = slot_of
        self.pos_in_link = pos_in_link
        self.link_n = link_n
        self.nmax = nmax
        self.slot_vcs = slot_vcs
        self.slot_vcs_flat = slot_vcs.reshape(-1)

        # Arbitration sources: the position of every source code within its
        # router's rotation, the rotation length per router, and the
        # (router, position) -> code decode table (zero-padded so vector
        # gathers on garbage positions stay in bounds).
        m_of_router = np.array(
            [len(sources) for sources in template.r_sources] or [0], np.int32
        )
        mmax = int(m_of_router.max()) if R else 1
        mmax = max(mmax, 1)
        srcpos = np.zeros(C + F + 1, np.int32)
        code_tab = np.zeros(max(R, 1) * mmax, np.int32)
        for rid, sources in enumerate(template.r_sources):
            for pos, code in enumerate(sources):
                srcpos[code] = pos
                code_tab[rid * mmax + pos] = code
        self.mmax = mmax
        self.srcpos = srcpos
        self.code_tab = code_tab
        # Channel -> its source router / rotation length.
        chan_router = link_router[slot_of]
        self.m_of_chan = m_of_router[chan_router]
        self.chan_rid_scaled = (chan_router * mmax).astype(np.int32)

        # Flow routes as a padded matrix plus per-flow metadata.
        lmax = 1
        for route in template.flow_routes:
            lmax = max(lmax, len(route))
        route_mat = np.zeros((max(F, 1), lmax), np.int32)
        route_len = np.zeros(max(F, 1), np.int32)
        flow_first = np.zeros(max(F, 1), np.int32)
        for fid, route in enumerate(template.flow_routes):
            route_len[fid] = len(route)
            route_mat[fid, : len(route)] = route
            flow_first[fid] = route[0]
        self.lmax = lmax
        self.route_flat = route_mat.reshape(-1)
        self.route_len = route_len
        self.flow_first = flow_first

    @classmethod
    def of(cls, design: NocDesign) -> "BatchedTemplate":
        """The design's cached batched template, (re)compiled when stale."""
        template = SimulationTemplate.of(design)
        context = DesignContext.of(design)
        cached = getattr(context, "batch_template", None)
        if cached is not None and cached.template is template:
            return cached
        compiled = cls(template)
        context.batch_template = compiled
        return compiled


# ----------------------------------------------------------------------
# per-lane adapters
# ----------------------------------------------------------------------


class _LaneView:
    """One lane's buffers exposed through the deadlock-checker surface.

    :func:`repro.simulation.deadlock.confirm_wait_cycle` only reads
    ``wait_for_edges()`` and ``design``; this adapter reproduces the legacy
    edge iteration order (``SimulationTemplate.wait_order``) from the flat
    batch state of a single lane.
    """

    def __init__(self, program: "_BatchProgram", lane: int):
        self._program = program
        self._lane = lane
        self.design = program.design

    def wait_for_edges(self):
        p = self._program
        t = p.bt.template
        C = p.bt.C
        base = self._lane * C
        cap_base = self._lane * p.cap
        buf_lo, buf_hi = p.buf_lo, p.buf_hi
        buf_pkt, buf_hops = p.buf_pkt, p.buf_hops
        channels = t.channels
        flow_routes = t.flow_routes
        edges = []
        for cid in t.wait_order:
            flat = base + cid
            if buf_hi[flat] == buf_lo[flat]:
                continue
            fid = int(p.pkt_flow[cap_base + int(buf_pkt[flat])])
            route = flow_routes[fid]
            hops = int(buf_hops[flat])
            if hops >= len(route):  # pragma: no cover - buffers never hold arrived flits
                continue
            edges.append((channels[cid], channels[route[hops]]))
        return edges


class _FastInjectionGroup:
    """Lanes sharing one Bernoulli draw stream (same seed, same flow order).

    Every fast-path generator consumes exactly one uniform draw per
    eligible flow per cycle, in sorted-flow order, so one transplanted
    Mersenne-Twister stream serves every lane of the group; the per-lane
    rates matrix is the only thing that differs.
    """

    def __init__(self, program: "_BatchProgram", lanes: List[int]):
        np = _numpy()
        self.lanes = np.array(lanes, np.int32)
        generator = program.generators[lanes[0]]
        order = generator._flow_order
        self.rng = _mirror_rng(generator._rng)
        self.rates = np.array(
            [[program.generators[lane]._rates[name] for name in order] for lane in lanes],
            np.float64,
        )
        self.rate_max = self.rates.max(axis=0) if order else self.rates
        self.n_flows = len(order)
        t = program.bt.template
        design = program.design
        fids = []
        local = []
        sizes = []
        for name in order:
            flow = design.traffic.flow(name)
            fids.append(t.flow_ids.get(name, -1))
            local.append(design.switch_of(flow.src) == design.switch_of(flow.dst))
            sizes.append(flow.packet_size_flits)
        self.fid_arr = np.array(fids, np.int32) if fids else np.zeros(0, np.int32)
        self.local_arr = np.array(local, bool) if local else np.zeros(0, bool)
        self.size_arr = np.array(sizes, np.int32) if sizes else np.zeros(0, np.int32)


def _mirror_rng(rng):
    """A numpy ``RandomState`` emitting ``rng.random()``'s exact stream.

    CPython's ``random.Random`` and numpy's legacy ``RandomState`` share
    the Mersenne-Twister core and the same 53-bit double derivation, so
    transplanting the 624-word state makes ``random_sample`` bit-identical
    to the scalar generator's ``random()`` sequence.  Returns ``None``
    when the state is not the expected MT19937 version (a custom Random
    subclass); callers then fall back to per-lane scalar generation.
    """
    np = _numpy()
    state = rng.getstate()
    if len(state) != 3 or state[0] != 3:  # pragma: no cover - CPython always v3
        return None
    keys_and_pos = state[1]
    mirror = np.random.RandomState(0)
    mirror.set_state(
        ("MT19937", np.array(keys_and_pos[:-1], dtype=np.uint32), int(keys_and_pos[-1]))
    )
    return mirror


def _is_fast_generator(generator) -> bool:
    """True when the generator's per-cycle draws are the base Bernoulli sweep."""
    cls = type(generator)
    return (
        isinstance(generator, FlowTrafficGenerator)
        and cls._firing is FlowTrafficGenerator._firing
        and cls.generate is FlowTrafficGenerator.generate
    )


# ----------------------------------------------------------------------
# the batch program
# ----------------------------------------------------------------------


class _BatchProgram:
    """B concurrent wormhole simulations of one design, injected together."""

    def __init__(
        self,
        design: NocDesign,
        configs: Sequence[SimulationConfig],
        generators: Sequence[Any],
        stats_list: Sequence[SimulationStats],
    ):
        np = _numpy()
        if not configs:
            raise SimulationError("a batched run needs at least one configuration")
        first = configs[0]
        for config in configs:
            if config.fault_schedule is not None and len(config.fault_schedule):
                raise SimulationError(
                    "the batched engine cannot express fault schedules; "
                    "run those specs through the 'compiled' engine"
                )
            if config.buffer_depth != first.buffer_depth:
                raise SimulationError(
                    "all lanes of a batched run must share buffer_depth "
                    f"({config.buffer_depth} != {first.buffer_depth})"
                )
            if config.watchdog_cycles != first.watchdog_cycles:
                raise SimulationError(
                    "all lanes of a batched run must share watchdog_cycles "
                    f"({config.watchdog_cycles} != {first.watchdog_cycles})"
                )
        self.design = design
        self.configs = list(configs)
        self.generators = list(generators)
        self.stats_list = list(stats_list)
        self.depth = first.buffer_depth
        self.watchdog = first.watchdog_cycles
        self.bt = BatchedTemplate.of(design)
        bt = self.bt
        B = len(configs)
        C, S, F = bt.C, bt.S, bt.F
        self.B = B

        i32 = np.int32
        # --- dynamic state, one flat lane-major array per field ---------
        self.buf_pkt = np.full(B * C, -1, i32)
        self.buf_lo = np.zeros(B * C, i32)
        self.buf_hi = np.zeros(B * C, i32)
        self.buf_hops = np.zeros(B * C, i32)
        #: Local channel id of ``route[buf_hops]`` for the stored packet
        #: (maintained at every arrival; read wherever the scalar engine
        #: recomputes the route lookup).
        self.buf_target = np.zeros(B * C, i32)
        self.out_owner = np.full(B * C, -1, i32)
        self.out_src = np.full(B * C, -1, i32)
        self.alloc_ptr = np.zeros(B * C, i32)
        self.link_ptr = np.zeros(B * max(S, 1), i32)
        self.busy = np.zeros(B * C, np.int64)
        # Injection queues: the head packet (id, next flit index) per
        # (lane, flow) vectorised; the waiting remainder as deques.
        self.q_head_pid = np.full(B * max(F, 1), -1, i32)
        self.q_head_idx = np.zeros(B * max(F, 1), i32)
        self.q_rest_len = np.zeros(B * max(F, 1), i32)
        self.q_rest: List[deque] = [deque() for _ in range(B * max(F, 1))]
        # Packet records, lane-major with a growing per-lane capacity.
        self.cap = 256
        self.pkt_flow = np.zeros(B * self.cap, i32)
        self.pkt_size = np.zeros(B * self.cap, i32)
        self.pkt_created = np.zeros(B * self.cap, i32)
        self.pkt_seq = [0] * B

        # --- per-lane counters ------------------------------------------
        i64 = np.int64
        self.undelivered = np.zeros(B, i64)
        self.buffered = np.zeros(B, i64)
        self.pending_inj = np.zeros(B, i64)
        self.idle = np.zeros(B, i32)
        self.active = np.ones(B, bool)
        self.acc_transfers = np.zeros(B, i64)
        self.acc_flits_delivered = np.zeros(B, i64)
        self.acc_packets_delivered = np.zeros(B, i64)
        self.acc_packets_injected = np.zeros(B, i64)
        self.acc_local_deliveries = np.zeros(B, i64)
        self.acc_packets_lost = np.zeros(B, i64)
        self.acc_flits_lost = np.zeros(B, i64)
        self.latencies: List[List[int]] = [stats.latencies for stats in stats_list]

        # Static tiled index helpers and per-cycle scratch (lane-width
        # dependent — rebuilt whenever finished lanes are compacted away).
        self._build_tiled()

        # --- injection plan ---------------------------------------------
        fast_by_key: Dict[Tuple[Any, ...], List[int]] = {}
        fast_keys: List[Tuple[Any, ...]] = []
        self.slow_lanes: List[int] = []
        for lane, generator in enumerate(self.generators):
            mirror_ok = _is_fast_generator(generator) and _mirror_rng(
                generator._rng
            ) is not None
            if mirror_ok:
                key = (generator.seed, tuple(generator._flow_order))
                if key not in fast_by_key:
                    fast_by_key[key] = []
                    fast_keys.append(key)
                fast_by_key[key].append(lane)
            else:
                self.slow_lanes.append(lane)
        self.fast_groups = [
            _FastInjectionGroup(self, fast_by_key[key]) for key in fast_keys
        ]
        # Flow metadata for the slow (per-lane generate()) path.
        self.flow_info: Dict[str, Tuple[bool, int]] = {}
        for flow in design.traffic.flows:
            is_local = design.switch_of(flow.src) == design.switch_of(flow.dst)
            self.flow_info[flow.name] = (is_local, bt.template.flow_ids.get(flow.name, -1))

    def _build_tiled(self) -> None:
        """(Re)build the lane-tiled index arrays and scratch for width B."""
        np = _numpy()
        bt = self.bt
        B, C, S, F = self.B, bt.C, bt.S, bt.F
        i32 = np.int32
        lane_C = np.repeat(np.arange(B, dtype=i32), C)
        lane_F = np.repeat(np.arange(B, dtype=i32), max(F, 1))
        self.lane_of_slot = np.repeat(np.arange(B, dtype=i32), max(S, 1))
        self.o_C = lane_C * C
        self.o_F_of_flow = lane_F * max(F, 1)
        self.o_C_of_flow = lane_F * C
        self.o_F_by_chan = lane_C * np.int32(max(F, 1))
        self.o_slotbase_by_chan = lane_C * np.int32(max(S, 1))
        self.o_C_by_slot = self.lane_of_slot * C
        self.slot_of_t = np.tile(bt.slot_of, B) + self.o_slotbase_by_chan
        self.pos_in_link_t = np.tile(bt.pos_in_link, B)
        self.link_n_by_chan = np.tile(bt.link_n[bt.slot_of], B)
        self.m_by_chan = np.tile(bt.m_of_chan, B)
        self.rid_scaled_t = np.tile(bt.chan_rid_scaled, B)
        self.srcpos_chan_t = np.tile(bt.srcpos[:C], B)
        self.slot_loc_t = np.tile(np.arange(max(S, 1), dtype=i32), B)
        if F:
            # Per-queue candidate metadata, pre-tiled so the allocation
            # phase is pure gathers on the fresh-head subset.
            self.q_cand_chan_t = self.o_C_of_flow + np.tile(bt.flow_first, B)
            self.q_spos_t = np.tile(bt.srcpos[C : C + F], B)
            self.q_m_t = np.tile(bt.m_of_chan[bt.flow_first], B)
        self._lane_C = lane_C
        self.capoff_C = (lane_C * np.int32(self.cap)).astype(np.int64)
        # Per-cycle scratch.  The per-channel work arrays are only written
        # on the resolved/candidate subsets each cycle; every later read
        # is guarded by a mask derived from those same subsets, so stale
        # values from earlier cycles are never observed.
        BC = B * C
        BS = B * max(S, 1)
        self._src_code = np.empty(BC, i32)
        self._pkt = np.empty(BC, i32)
        self._idx = np.empty(BC, i32)
        self._hops = np.empty(BC, i32)
        self._occ = np.empty(BC, i32)
        self._rotpos = np.empty(BC, i32)
        self._win_srcpos = np.empty(BC, i32)
        self._alloc_valid = np.zeros(BC, bool)
        self._has_cand = np.zeros(BC, bool)
        self._is_last = np.zeros(BC, bool)
        self._credit_ok = np.zeros(BC, bool)
        self._relax = np.zeros(BC, bool)
        self._wkey = np.empty(BS, i32)
        self._dirty_slot = np.zeros(BS, bool)

    def _compact(self) -> None:
        """Narrow the program to the still-active lanes.

        Only a lane that deadlocks during injection finishes early; its
        stats are already flushed by :meth:`_finish`, and it is sliced out
        of every state array so the other lanes stop paying for it.
        """
        np = _numpy()
        keep = np.nonzero(self.active)[0]
        if keep.size == self.B:
            return
        bt = self.bt
        C, S, F = bt.C, bt.S, bt.F
        keep_list = keep.tolist()

        def take(arr, width):
            return arr.reshape(self.B, width)[keep].reshape(-1).copy()

        for name in (
            "buf_pkt", "buf_lo", "buf_hi", "buf_hops", "buf_target",
            "out_owner", "out_src", "alloc_ptr", "busy",
        ):
            setattr(self, name, take(getattr(self, name), C))
        self.link_ptr = take(self.link_ptr, max(S, 1))
        for name in ("q_head_pid", "q_head_idx", "q_rest_len"):
            setattr(self, name, take(getattr(self, name), max(F, 1)))
        rest: List[deque] = []
        for lane in keep_list:
            rest.extend(self.q_rest[lane * max(F, 1) : (lane + 1) * max(F, 1)])
        self.q_rest = rest
        for name in ("pkt_flow", "pkt_size", "pkt_created"):
            setattr(self, name, take(getattr(self, name), self.cap))
        for name in (
            "undelivered", "buffered", "pending_inj", "idle", "active",
            "acc_transfers", "acc_flits_delivered", "acc_packets_delivered",
            "acc_packets_injected", "acc_local_deliveries",
            "acc_packets_lost", "acc_flits_lost",
        ):
            setattr(self, name, getattr(self, name)[keep].copy())
        self.pkt_seq = [self.pkt_seq[lane] for lane in keep_list]
        self.latencies = [self.latencies[lane] for lane in keep_list]
        self.stats_list = [self.stats_list[lane] for lane in keep_list]
        self.generators = [self.generators[lane] for lane in keep_list]
        remap = {old: new for new, old in enumerate(keep_list)}
        self.slow_lanes = [
            remap[lane] for lane in self.slow_lanes if lane in remap
        ]
        groups = []
        for group in self.fast_groups:
            rows = [
                i for i, lane in enumerate(group.lanes.tolist()) if lane in remap
            ]
            if not rows:
                # Nobody reads this seed group's draws any more; its
                # stream simply stops, like the scalar generators it
                # mirrors stop being called.
                continue
            group.lanes = np.array(
                [remap[int(group.lanes[i])] for i in rows], np.int32
            )
            group.rates = group.rates[rows]
            group.rate_max = group.rates.max(axis=0)
            groups.append(group)
        self.fast_groups = groups
        self.B = int(keep.size)
        self._build_tiled()

    # ------------------------------------------------------------------
    # injection
    # ------------------------------------------------------------------
    def _grow_packets(self, needed: int) -> None:
        np = _numpy()
        new_cap = self.cap
        while new_cap <= needed:
            new_cap *= 2
        B, old_cap = self.B, self.cap
        for name in ("pkt_flow", "pkt_size", "pkt_created"):
            old = getattr(self, name)
            grown = np.zeros(B * new_cap, np.int32)
            for lane in range(B):
                grown[lane * new_cap : lane * new_cap + old_cap] = old[
                    lane * old_cap : (lane + 1) * old_cap
                ]
            setattr(self, name, grown)
        self.cap = new_cap
        self.capoff_C = (self._lane_C * np.int32(new_cap)).astype(np.int64)

    def _enqueue(self, lane: int, fid: int, pid: int, size: int, cycle: int) -> None:
        """Queue all flits of one packet at its source router (one lane)."""
        if pid >= self.cap:
            self._grow_packets(pid)
        rec = lane * self.cap + pid
        self.pkt_flow[rec] = fid
        self.pkt_size[rec] = size
        self.pkt_created[rec] = cycle
        flat = lane * self.bt.F + fid
        if self.q_head_pid[flat] < 0 and not self.q_rest[flat]:
            self.q_head_pid[flat] = pid
            self.q_head_idx[flat] = 0
        else:
            self.q_rest[flat].append(pid)
            self.q_rest_len[flat] += 1
        self.undelivered[lane] += size
        self.pending_inj[lane] += size

    def _inject_fast(self, group: _FastInjectionGroup, cycle: int) -> None:
        np = _numpy()
        B, F = self.B, self.bt.F
        draws = group.rng.random_sample(group.n_flows)
        if not (draws < group.rate_max).any():
            return
        # A full broadcast compare beats a fancy column-subset copy.
        hits = group.rates > draws
        rows, col_ids = np.nonzero(hits)
        if not rows.size:
            return
        # Sequential per-lane packet ids in sorted-flow order — exactly the
        # order the scalar generator assigns them (rows/cols from nonzero
        # are lane-major, flow-ascending).
        lanes = group.lanes[rows]
        counts = np.bincount(rows, minlength=len(group.lanes))
        starts = np.concatenate(([0], np.cumsum(counts[:-1])))
        seq = np.array(self.pkt_seq, np.int64)[lanes]
        pids = seq + (np.arange(rows.size) - starts[rows])
        for lane, n in zip(group.lanes.tolist(), counts.tolist()):
            if n:
                self.pkt_seq[lane] += n
        self.acc_packets_injected += np.bincount(lanes, minlength=B)
        loc = group.local_arr[col_ids]
        sizes = group.size_arr[col_ids]
        if loc.any():
            # Same-switch traffic never enters the network: delivered
            # through the local NI one cycle later, latency 1.
            lcount = np.bincount(lanes[loc], minlength=B)
            self.acc_packets_delivered += lcount
            self.acc_local_deliveries += lcount
            self.acc_flits_delivered += np.bincount(
                lanes[loc], weights=sizes[loc], minlength=B
            ).astype(np.int64)
            for lane in np.nonzero(lcount)[0].tolist():
                self.latencies[lane].extend([1] * int(lcount[lane]))
        net = ~loc
        if not net.any():
            return
        lanes_n = lanes[net]
        pids_n = pids[net]
        sizes_n = sizes[net]
        fids_n = group.fid_arr[col_ids[net]]
        top = int(pids_n.max())
        if top >= self.cap:
            self._grow_packets(top)
        rec = lanes_n.astype(np.int64) * self.cap + pids_n
        self.pkt_flow[rec] = fids_n
        self.pkt_size[rec] = sizes_n
        self.pkt_created[rec] = cycle
        # A fast-path flow fires at most once per lane per cycle, so the
        # (lane, flow) queue slots below are distinct — plain scatters.
        flats = lanes_n * np.int32(F) + fids_n
        empty = (self.q_head_pid[flats] < 0) & (self.q_rest_len[flats] == 0)
        self.q_head_pid[flats[empty]] = pids_n[empty].astype(np.int32)
        self.q_head_idx[flats[empty]] = 0
        for i in np.nonzero(~empty)[0].tolist():
            flat = int(flats[i])
            self.q_rest[flat].append(int(pids_n[i]))
            self.q_rest_len[flat] += 1
        flit_sum = np.bincount(lanes_n, weights=sizes_n, minlength=B).astype(np.int64)
        self.undelivered += flit_sum
        self.pending_inj += flit_sum

    def _inject_slow(self, lane: int, cycle: int) -> None:
        for packet in self.generators[lane].generate(cycle):
            self.acc_packets_injected[lane] += 1
            is_local, fid = self.flow_info[packet.flow_name]
            if is_local:
                packet.delivered_cycle = cycle + 1
                self.acc_packets_delivered[lane] += 1
                self.acc_local_deliveries[lane] += 1
                self.acc_flits_delivered[lane] += packet.size_flits
                self.latencies[lane].append(packet.latency)
            elif not packet.route or fid < 0:
                # Only reachable under fault injection (which the batched
                # engine rejects), kept for parity with the scalar loop.
                self.acc_packets_lost[lane] += 1
                self.acc_flits_lost[lane] += packet.size_flits
            else:
                pid = packet.packet_id
                self.pkt_seq[lane] = max(self.pkt_seq[lane], pid + 1)
                self._enqueue(lane, fid, pid, packet.size_flits, cycle)

    def _inject(self, cycle: int) -> None:
        for group in self.fast_groups:
            self._inject_fast(group, cycle)
        for lane in self.slow_lanes:
            if self.active[lane]:
                self._inject_slow(lane, cycle)

    # ------------------------------------------------------------------
    # one batched cycle
    # ------------------------------------------------------------------
    def _step(self, cycle: int):
        """Advance every active lane by one cycle.

        Returns ``(transfers_per_lane, deadlocked)`` where ``deadlocked``
        is a list of ``(lane, blocked_channels)`` pairs whose watchdog
        tripped with a confirmed wait-for cycle.
        """
        np = _numpy()
        bt = self.bt
        B, C, S, F = self.B, bt.C, bt.S, bt.F
        depth = self.depth
        i32 = np.int32
        i64 = np.int64

        # ---- phase 1: switch allocation (start-of-cycle exact) --------
        # Allocation only ever matters on *unowned* channels (an owned
        # channel keeps its wormhole source), so candidates whose target
        # is owned are dropped before any priority math — at saturation
        # that is most of them.  (Compaction guarantees every tracked
        # lane is active, so no lane mask is needed here.)
        owner_neg = self.out_owner == -1
        # Buffer sources: a head flit (lo == 0) of a non-empty buffer
        # requests its one target channel.
        bl = np.nonzero((self.buf_lo == 0) & (self.buf_hi > 0))[0]
        cand_t = self.o_C[bl] + self.buf_target[bl]
        keep_b = owner_neg[cand_t]
        bl = bl[keep_b]
        cand_t = cand_t[keep_b]
        prio_b = self.srcpos_chan_t[bl] - self.alloc_ptr[cand_t]
        neg_b = prio_b < 0
        prio_b[neg_b] += self.m_by_chan[cand_t[neg_b]]
        key_b = prio_b * i32(bt.mmax) + self.srcpos_chan_t[bl]
        # Queue sources: a fresh head packet (flit index 0) requests its
        # route's first channel.
        if F:
            ql = np.nonzero((self.q_head_pid >= 0) & (self.q_head_idx == 0))[0]
            cand_tq = self.q_cand_chan_t[ql]
            keep_q = owner_neg[cand_tq]
            ql = ql[keep_q]
            cand_tq = cand_tq[keep_q]
            spos_q = self.q_spos_t[ql]
            prio_q = spos_q - self.alloc_ptr[cand_tq]
            neg_q = prio_q < 0
            prio_q[neg_q] += self.q_m_t[ql[neg_q]]
            key_q = prio_q * i32(bt.mmax) + spos_q
            cand_all = np.concatenate((cand_t, cand_tq))
            key_all = np.concatenate((key_b, key_q))
        else:
            cand_all, key_all = cand_t, key_b
        alloc_valid = self._alloc_valid
        alloc_valid.fill(False)
        src_code = self._src_code
        np.copyto(src_code, self.out_src)
        win_srcpos = self._win_srcpos
        if cand_all.size:
            # Winner per requested channel = smallest (priority, srcpos)
            # key.  Pack channel and key into one integer and sort: the
            # first entry per channel is its winner — faster than a
            # scatter-min ufunc at these sizes.
            ka = i64(bt.mmax) * i64(bt.mmax)
            pack = cand_all.astype(i64) * ka + key_all
            pack.sort()
            chans = pack // ka
            first = np.empty(pack.shape, bool)
            first[0] = True
            np.not_equal(chans[1:], chans[:-1], out=first[1:])
            aw = chans[first]
            win_srcpos[aw] = (pack[first] - aw * ka) % i64(bt.mmax)
            alloc_valid[aw] = True
            # Every winner is on a previously unowned channel: it
            # resolves to the allocation winner right away.
            src_code[aw] = bt.code_tab[self.rid_scaled_t[aw] + win_srcpos[aw]]
        else:
            aw = np.empty(0, i64)

        # ---- phase 2: resolve each channel's feeding source -----------
        # Everything downstream only ever reads channels with a resolved
        # source, so gather head-flit facts on that subset and scatter
        # them into the persistent scratch arrays.
        res = np.nonzero(alloc_valid | ~owner_neg)[0]
        sc = src_code[res]
        is_q = sc >= C
        sb = self.o_C[res] + np.where(is_q, 0, sc)
        pkt_s = self.buf_pkt[sb]
        idx_s = self.buf_lo[sb]
        hops_s = self.buf_hops[sb]
        flits_s = self.buf_hi[sb] - idx_s
        qi = np.nonzero(is_q)[0]
        if qi.size:
            sq = self.o_F_by_chan[res[qi]] + (sc[qi] - i32(C))
            qpkt = self.q_head_pid[sq]
            pkt_s[qi] = qpkt
            idx_s[qi] = self.q_head_idx[sq]
            hops_s[qi] = 0
            flits_s[qi] = qpkt >= 0
        good = flits_s > 0
        hc = res[good]
        has_cand = self._has_cand
        has_cand.fill(False)
        has_cand[hc] = True
        pkt = self._pkt
        idx = self._idx
        hops = self._hops
        pkt[res] = pkt_s
        idx[res] = idx_s
        hops[res] = hops_s
        pkt_hc = pkt_s[good]
        fid_hc = self.pkt_flow[self.capoff_C[hc] + pkt_hc]
        last_hc = hops_s[good] == bt.route_len[fid_hc] - 1
        is_last = self._is_last
        is_last[hc] = last_hc

        # ---- phase 3: credit + start-of-cycle link winners ------------
        occ = self._occ
        np.subtract(self.buf_hi, self.buf_lo, out=occ)
        occ_hc = occ[hc]
        down_hc = self.buf_pkt[hc]
        pkt_ok_hc = (down_hc == -1) | (down_hc == pkt_hc)
        credit_hc = (occ_hc < depth) & pkt_ok_hc
        credit_ok = self._credit_ok
        credit_ok[hc] = credit_hc
        ready_hc = last_hc | credit_hc
        slot_hc = self.slot_of_t[hc]
        rp_hc = self.pos_in_link_t[hc] - self.link_ptr[slot_hc]
        neg_r = rp_hc < 0
        rp_hc[neg_r] += self.link_n_by_chan[hc[neg_r]]
        rotpos = self._rotpos
        rotpos[hc] = rp_hc
        ri = hc[ready_hc]
        lkey = rp_hc[ready_hc] * i32(bt.nmax) + self.pos_in_link_t[ri]
        wkey = self._wkey
        wkey.fill(_BIG)
        np.minimum.at(wkey, slot_hc[ready_hc], lkey)
        win_valid = wkey < _BIG
        win_rot = wkey // i32(bt.nmax)
        win_pos = wkey - win_rot * i32(bt.nmax)

        # ---- phase 4: dirty links (winner may move earlier) -----------
        # A start-of-cycle credit block is *relaxable* when the one drain
        # its downstream buffer can see this cycle flips the verdict; if
        # that drain's slot precedes this link in the sweep and the
        # blocked VC is visited before the predicted winner, the winner
        # may change — replay those links exactly, everything else is
        # final.
        # Only non-ready candidates can be relaxably blocked, and the
        # feeds test below only reads ``relax`` at targets that are
        # themselves non-ready candidates, so the whole computation runs
        # on that subset (stale scratch at ready targets is masked by
        # their own is_last/credit_ok term).
        nr = ~ready_hc
        bn = hc[nr]
        occ_bn = occ_hc[nr]
        pkt_ok_bn = pkt_ok_hc[nr]
        down_bn = down_hc[nr]
        down_size_bn = self.pkt_size[self.capoff_C[bn] + np.maximum(down_bn, 0)]
        relax_bn = ((occ_bn == depth) & pkt_ok_bn) | (
            ~pkt_ok_bn & (occ_bn == 1) & (self.buf_lo[bn] == down_size_bn - 1)
        )
        relax = self._relax
        relax[bn] = relax_bn
        bi = bn[relax_bn]
        if bi.size:
            # The drain that would flip the verdict is a transfer on the
            # stored head's target channel fed by this very buffer — and
            # source resolution is start-of-cycle exact, so demand all the
            # start-of-cycle-computable necessities now: the target must be
            # fed by this buffer, must transfer at an earlier link in the
            # sweep, must itself be able to move (ready, or relaxably
            # blocked in turn), and must sit no later than its own link's
            # predicted winner (winners only ever move earlier).  The
            # target is then itself a candidate channel, so reading the
            # subset-written scratch at it is safe (conjunction with the
            # src_code test masks any stale value).
            tgt = self.o_C[bi] + self.buf_target[bi]
            sig = self.slot_of_t[tgt]
            feeds = src_code[tgt] == (bi - self.o_C[bi])
            feeds &= sig < self.slot_of_t[bi]
            # The blocked VC only dethrones the predicted winner if it is
            # visited strictly earlier; the feeder only drains if it can
            # still be its own link's winner (winners only move earlier,
            # so a VC past the predicted winner never wins).
            feeds &= (
                rotpos[bi] * i32(bt.nmax) + self.pos_in_link_t[bi]
                < wkey[self.slot_of_t[bi]]
            )
            feeds &= is_last[tgt] | credit_ok[tgt] | relax[tgt]
            feeds &= (
                rotpos[tgt] * i32(bt.nmax) + self.pos_in_link_t[tgt]
                <= wkey[sig]
            )
            bi = bi[feeds]
        dirty_slot = self._dirty_slot
        if bi.size:
            dirty_slot[self.slot_of_t[bi]] = True
            # nonzero on the scatter mask yields the dirty slots already
            # sorted lane-major, slot-ascending — the replay order.
            dirty = np.nonzero(dirty_slot)[0]
            self._redo_dirty(
                dirty, win_valid, win_rot, win_pos,
                alloc_valid, owner_neg, src_code, pkt, has_cand, is_last,
                win_srcpos, occ,
            )
        else:
            dirty = bi

        # ---- phase 5: allocation side effects on clean links ----------
        # The scalar sweep commits ownership (and advances the rotation
        # pointer) for every *visited* unowned channel with a candidate —
        # visited means rotation position at or before the final winner
        # (all positions when nothing transfers).  Exactly the freshly
        # allocated channels (aw) qualify; dirty links were replayed
        # with their side effects above.
        if aw.size:
            slot_aw = self.slot_of_t[aw]
            visit = rotpos[aw] <= win_rot[slot_aw]
            if dirty.size:
                visit &= ~dirty_slot[slot_aw]
            vi = aw[visit]
            self.out_owner[vi] = pkt[vi]
            self.out_src[vi] = src_code[vi]
            next_ptr = win_srcpos[vi] + 1
            m_vi = self.m_by_chan[vi]
            wrap = next_ptr >= m_vi
            next_ptr[wrap] -= m_vi[wrap]
            self.alloc_ptr[vi] = next_ptr
        if dirty.size:
            dirty_slot[dirty] = False

        # ---- phase 6: commit all transfers ----------------------------
        w = np.nonzero(win_valid)[0]  # lane-major, slot-ascending
        if w.size:
            w_lane = self.lane_of_slot[w]
            slt_w = self.slot_loc_t[w]
            w_loc = bt.slot_vcs_flat[slt_w * i32(bt.nmax) + win_pos[w]]
            w_cf = self.o_C_by_slot[w] + w_loc
            cap_w = self.capoff_C[w_cf]
            w_pkt = pkt[w_cf]
            w_idx = idx[w_cf]
            w_src = src_code[w_cf]
            w_last = is_last[w_cf]
            w_tail = w_idx == self.pkt_size[cap_w + w_pkt] - 1

            # Link rotation pointer advances past the winner.
            next_pos = win_pos[w] + 1
            n_w = bt.link_n[slt_w]
            ovr = next_pos >= n_w
            next_pos[ovr] -= n_w[ovr]
            self.link_ptr[w] = next_pos
            self.busy[w_cf] += 1
            transfers = np.bincount(w_lane, minlength=B)

            # Drain buffer sources.
            from_buf = w_src < C
            wl_b = w_lane[from_buf]
            sbw = wl_b * i32(C) + w_src[from_buf]
            new_lo = self.buf_lo[sbw] + 1
            self.buf_lo[sbw] = new_lo
            emptied = (new_lo == self.buf_hi[sbw]) & w_tail[from_buf]
            self.buf_pkt[sbw[emptied]] = -1
            self.buffered -= np.bincount(wl_b, minlength=B)

            # Drain injection-queue sources.
            from_q = ~from_buf
            if from_q.any():
                wl_q = w_lane[from_q]
                qfw = wl_q * i32(F) + (w_src[from_q] - C)
                q_tail = w_tail[from_q]
                fresh = ~q_tail
                self.q_head_idx[qfw[fresh]] = w_idx[from_q][fresh] + 1
                for flat in qfw[q_tail].tolist():
                    rest = self.q_rest[flat]
                    if rest:
                        self.q_head_pid[flat] = rest.popleft()
                        self.q_rest_len[flat] -= 1
                    else:
                        self.q_head_pid[flat] = -1
                    self.q_head_idx[flat] = 0
                self.pending_inj -= np.bincount(wl_q, minlength=B)

            # Tail flits release wormhole ownership.
            released = w_cf[w_tail]
            self.out_owner[released] = -1
            self.out_src[released] = -1

            # Deliveries at the last hop.
            delivered = np.bincount(w_lane[w_last], minlength=B)
            self.acc_flits_delivered += delivered
            self.undelivered -= delivered
            done = w_last & w_tail
            if done.any():
                done_lane = w_lane[done]
                self.acc_packets_delivered += np.bincount(done_lane, minlength=B)
                waited = cycle - self.pkt_created[cap_w[done] + w_pkt[done]]
                for lane, value in zip(done_lane.tolist(), waited.tolist()):
                    self.latencies[lane].append(value)

            # Arrivals land after every router has been served.
            arr = ~w_last
            if arr.any():
                a_cf = w_cf[arr]
                a_pkt = w_pkt[arr]
                a_idx = w_idx[arr]
                a_hops = hops[a_cf] + 1
                was_free = self.buf_pkt[a_cf] == -1
                self.buf_pkt[a_cf[was_free]] = a_pkt[was_free]
                self.buf_lo[a_cf[was_free]] = a_idx[was_free]
                self.buf_hi[a_cf] = a_idx + 1
                self.buf_hops[a_cf] = a_hops
                a_fid = self.pkt_flow[cap_w[arr] + a_pkt]
                self.buf_target[a_cf] = bt.route_flat[
                    a_fid * i32(bt.lmax) + a_hops
                ]
                self.buffered += np.bincount(w_lane[arr], minlength=B)
            self.acc_transfers += transfers
        else:
            transfers = np.zeros(B, np.int64)

        # ---- phase 7: deadlock watchdog -------------------------------
        progress = (transfers > 0) | (self.buffered == 0)
        self.idle[progress] = 0
        stuck = ~progress & self.active
        self.idle[stuck] += 1
        deadlocked = []
        if stuck.any():
            for lane in np.nonzero(self.idle >= self.watchdog)[0].tolist():
                if not self.active[lane]:
                    continue
                channels = confirm_wait_cycle(_LaneView(self, lane))
                if channels is None:
                    self.idle[lane] = 0
                else:
                    deadlocked.append((lane, channels))
        return transfers, deadlocked

    # ------------------------------------------------------------------
    def _redo_dirty(
        self, dirty, win_valid, win_rot, win_pos,
        alloc_valid, owner_neg, src_code, pkt, has_cand, is_last,
        win_srcpos, occ,
    ) -> None:
        """Replay marked links exactly, in ascending global slot order.

        Uses only start-of-cycle facts plus the already-final winners of
        earlier slots of the same lane (ascending order makes them final
        by the time they are read): a blocked VC's downstream buffer has
        drained exactly when the winner of its one drain slot is that
        buffer's target channel fed by that buffer.  Allocation side
        effects for the VCs the replay visits are applied here directly
        (phase 5 skips dirty links).
        """
        bt = self.bt
        C, S = bt.C, bt.S
        depth = self.depth
        nmax = bt.nmax
        svf = bt.slot_vcs_flat
        link_n = bt.link_n
        slot_of = bt.slot_of
        link_ptr = self.link_ptr
        out_owner = self.out_owner
        out_src = self.out_src
        alloc_ptr = self.alloc_ptr
        m_by_chan = self.m_by_chan
        buf_pkt = self.buf_pkt
        buf_target = self.buf_target
        buf_lo = self.buf_lo
        pkt_size = self.pkt_size
        cap = self.cap
        big_rot = _BIG // nmax
        for g in dirty.tolist():
            lane, j = divmod(g, S)
            base = lane * C
            n = int(link_n[j])
            start = int(link_ptr[g])
            committed = False
            for k in range(n):
                pos = start + k
                if pos >= n:
                    pos -= n
                cf = base + int(svf[j * nmax + pos])
                if owner_neg[cf] and alloc_valid[cf]:
                    # Visited unowned channel with a candidate: ownership
                    # commits here even when credit then fails.
                    out_owner[cf] = pkt[cf]
                    out_src[cf] = src_code[cf]
                    nxt = int(win_srcpos[cf]) + 1
                    m = int(m_by_chan[cf])
                    alloc_ptr[cf] = nxt - m if nxt >= m else nxt
                # Head-flit facts are start-of-cycle exact: the dense
                # candidate mask already encodes "resolved source with a
                # flit to send" (and skips owned-but-empty sources).
                if not has_cand[cf]:
                    continue
                if not is_last[cf]:
                    cur_occ = int(occ[cf])
                    cur_pkt = int(buf_pkt[cf])
                    if cur_occ > 0:
                        target = int(buf_target[cf])
                        sj = int(slot_of[target])
                        sigma = lane * S + sj
                        if sj < j and win_valid[sigma]:
                            x = int(svf[sj * nmax + int(win_pos[sigma])])
                            if x == target and int(src_code[base + x]) == cf - base:
                                # The downstream buffer drained at an
                                # earlier slot this cycle.
                                cur_occ -= 1
                                if cur_occ == 0 and int(buf_lo[cf]) == int(
                                    pkt_size[lane * cap + cur_pkt]
                                ) - 1:
                                    cur_pkt = -1
                    if cur_occ >= depth:
                        continue
                    if cur_pkt != -1 and cur_pkt != int(pkt[cf]):
                        continue
                # Commit this VC as the link's final winner.
                win_valid[g] = True
                win_rot[g] = k
                win_pos[g] = pos
                committed = True
                break
            if not committed:
                win_valid[g] = False
                win_rot[g] = big_rot
                win_pos[g] = 0

    # ------------------------------------------------------------------
    # run loop
    # ------------------------------------------------------------------
    def _flush(self, lane: int) -> SimulationStats:
        """Write one lane's accumulated counters into its stats."""
        stats = self.stats_list[lane]
        stats.packets_injected = int(self.acc_packets_injected[lane])
        stats.packets_delivered = int(self.acc_packets_delivered[lane])
        stats.flits_delivered = int(self.acc_flits_delivered[lane])
        stats.flit_transfers = int(self.acc_transfers[lane])
        stats.local_deliveries = int(self.acc_local_deliveries[lane])
        stats.packets_lost = int(self.acc_packets_lost[lane])
        stats.flits_lost = int(self.acc_flits_lost[lane])
        return stats

    def _finish(self, lane: int, cycle: int, blocked=None) -> None:
        """Flush one lane's counters into its stats and retire the lane."""
        np = _numpy()
        self.active[lane] = False
        stats = self._flush(lane)
        stats.cycles_run = cycle
        if blocked is not None:
            stats.deadlock_cycle = cycle
            stats.deadlocked_channels = list(blocked)
        C = self.bt.C
        channels = self.bt.template.channels
        busy = self.busy[lane * C : (lane + 1) * C]
        record = stats.channel_busy_cycles
        for cid in np.nonzero(busy)[0].tolist():
            record[channels[cid]] = int(busy[cid])

    def lane_network(self, lane: int) -> CompiledNetwork:
        """One lane's state as a :class:`CompiledNetwork` that steps on from here.

        Carries the buffers, ownership, both round-robin pointers, the
        queues, the live packet records and the busy counters over, then
        rederives the flit counters and requests with
        :meth:`CompiledNetwork.recount`.  Every link starts awake, which is
        always exact.
        """
        bt = self.bt
        C, S, F = bt.C, bt.S, bt.F
        network = CompiledNetwork(self.design, buffer_depth=self.depth)
        for name in (
            "buf_pkt", "buf_lo", "buf_hi", "buf_hops",
            "out_owner", "out_src", "alloc_ptr", "busy",
        ):
            setattr(network, name, getattr(self, name)[lane * C : (lane + 1) * C].tolist())
        slots = lane * max(S, 1)
        network.link_ptr = self.link_ptr[slots : slots + S].tolist()
        # A packet is live while a queue, a buffer or an owned channel still
        # holds it; its records follow it, in packet-id order.
        live = {pid for pid in network.buf_pkt if pid >= 0}
        live.update(pid for pid in network.out_owner if pid >= 0)
        first = lane * max(F, 1)
        for fid in range(F):
            head = int(self.q_head_pid[first + fid])
            if head >= 0:
                queue = network.inj_pkts[fid]
                queue.append(head)
                queue.extend(self.q_rest[first + fid])
                live.update(queue)
                network.inj_head_idx[fid] = int(self.q_head_idx[first + fid])
        base = lane * self.cap
        for pid in sorted(live):
            network.pkt_flow[pid] = int(self.pkt_flow[base + pid])
            network.pkt_size[pid] = int(self.pkt_size[base + pid])
            network.pkt_created[pid] = int(self.pkt_created[base + pid])
        network.recount()
        return network

    def _inject_all(self, max_cycles: int) -> int:
        """The injection phase; returns the first cycle after it.

        A lane that deadlocks here finishes at once and is compacted away.
        """
        cycle = 0
        for _ in range(max_cycles):
            if self.B == 0:
                break
            self._inject(cycle)
            _transfers, deadlocked = self._step(cycle)
            cycle += 1
            if deadlocked:
                for lane, channels in deadlocked:
                    self._finish(lane, cycle, blocked=channels)
                self._compact()
        return cycle

    def _drain_lane(self, lane: int, cycle: int, drain_cycles: int) -> None:
        """Drain one lane on a compiled network, in the compiled run loop's drain."""
        network = self.lane_network(lane)
        monitor = DeadlockMonitor(self.watchdog, idle_cycles=int(self.idle[lane]))
        stats = self._flush(lane)
        end, blocked = drain_network(network, monitor, stats, cycle, drain_cycles)
        network.materialise_busy_cycles(stats)
        stats.cycles_run = end
        if blocked is not None:
            stats.deadlock_cycle = end
            stats.deadlocked_channels = list(blocked)

    def run(
        self,
        max_cycles: int,
        *,
        drain: bool = True,
        drain_cycles: int = 5_000,
    ) -> None:
        cycle = self._inject_all(max_cycles)
        # With no injection left, the lanes share nothing: each one still
        # holding flits drains alone on a compiled network, built when it
        # starts draining and dropped when it is done.
        for lane in range(self.B):
            if drain and self.undelivered[lane]:
                self._drain_lane(lane, cycle, drain_cycles)
            else:
                self._finish(lane, cycle)


# ----------------------------------------------------------------------
# public API
# ----------------------------------------------------------------------


def run_batch(
    design: NocDesign,
    configs: Sequence[SimulationConfig],
    *,
    max_cycles: int = 10_000,
    drain: bool = True,
    drain_cycles: int = 5_000,
    cross_check: bool = False,
    generators: Optional[Sequence[Any]] = None,
) -> List[SimulationStats]:
    """Run B simulations of one design as a single array program.

    ``configs`` vary freely along ``injection_scale`` / ``seed`` /
    ``traffic_scenario`` / ``scenario_params``; ``buffer_depth`` and
    ``watchdog_cycles`` must agree across lanes and fault schedules are
    rejected (route swaps mid-run cannot be expressed in the shared
    template).  Returns one :class:`SimulationStats` per config, in
    order, field-identical to what ``build_simulator(design, config,
    engine="compiled").run(...)`` would produce lane by lane —
    ``cross_check=True`` enforces exactly that and raises
    :class:`SimulationError` on any divergence.

    ``generators`` optionally supplies pre-built traffic generators (one
    per config, as :func:`make_traffic_generator` would build them) so
    callers can read ``offered_flits_per_cycle`` without building them
    twice.
    """
    from repro.model.validation import validate_design

    validate_design(design)
    if generators is None:
        generators = [make_traffic_generator(design, config) for config in configs]
    stats_list = [SimulationStats(design_name=design.name) for _ in configs]
    program = _BatchProgram(design, configs, generators, stats_list)
    program.run(max_cycles, drain=drain, drain_cycles=drain_cycles)
    if cross_check:
        for lane, config in enumerate(configs):
            reference = CompiledSimulator(design, config).run(
                max_cycles, drain=drain, drain_cycles=drain_cycles
            )
            problems = stats_divergences(stats_list[lane], reference)
            if problems:
                shown = "; ".join(problems[:5])
                extra = "" if len(problems) <= 5 else f" (+{len(problems) - 5} more)"
                raise SimulationError(
                    f"batched lane {lane} diverged from the 'compiled' "
                    f"reference: {shown}{extra}"
                )
    return stats_list


class BatchedSimulator(Simulator):
    """Single-lane front of the batch program (the registry contract).

    ``simulation_engines`` entries are ``callable(design, config) ->
    simulator``; this class satisfies it by running a B = 1 batch, so
    everything the other engines offer (``simulate_design``,
    ``measure_load_point``, the CLI ``--engine`` flag) works with
    ``"batched"`` unchanged.  Grids should prefer :func:`run_batch` /
    the :class:`~repro.api.runner.Runner` batch planner, which is where
    the speedup lives.

    A config carrying a fault schedule cannot batch (recovery rewrites
    topology and routes mid-run): construction then transparently returns
    a :class:`CompiledSimulator` for the same arguments, after emitting a
    structured warning, so callers always get a correct simulator.
    """

    def __new__(cls, design: NocDesign, config: Optional[SimulationConfig] = None):
        schedule = config.fault_schedule if config is not None else None
        if schedule is not None and len(schedule):
            warnings.warn(
                structured_warning(
                    "batched-engine-fallback",
                    "the 'batched' engine cannot express fault schedules; "
                    "falling back to the 'compiled' engine for this run",
                ),
                RuntimeWarning,
                stacklevel=2,
            )
            return CompiledSimulator(design, config)
        return object.__new__(cls)

    def _build_network(self, design: NocDesign):
        # The batch program owns all network state; built per run() call.
        return None

    def run(
        self,
        max_cycles: int = 10_000,
        *,
        drain: bool = True,
        drain_cycles: int = 5_000,
        raise_on_deadlock: bool = False,
    ) -> SimulationStats:
        program = _BatchProgram(
            self.design, [self.config], [self.generator], [self.stats]
        )
        program.run(max_cycles, drain=drain, drain_cycles=drain_cycles)
        self._cycle = self.stats.cycles_run
        if raise_on_deadlock and self.stats.deadlock_cycle is not None:
            raise DeadlockDetected(
                self.stats.deadlock_cycle, self.stats.deadlocked_channels
            )
        return self.stats


simulation_engines.register(ENGINE_BATCHED, BatchedSimulator)
