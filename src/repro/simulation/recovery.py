"""Online recovery from link/router failures during a simulation run.

The :class:`RecoveryController` owns the fault axis of a run: it consumes
one :class:`~repro.simulation.events.EventSchedule`, applies each due
batch of events to the *running* design at the start of its cycle, and
hands the damage to a pluggable :class:`RecoveryPolicy` before the
network takes another step:

1. the failed links leave the topology (recording their VC count and
   physical length so a later restore can resurrect them faithfully);
2. every route crossing a failed link is dropped, and the configured
   policy repairs the route set — see below;
3. packets in flight on any flow whose route changed are dropped (their
   wormhole path no longer exists) and the network re-synchronises its
   channel state with the degraded design.

Policies live in the :data:`repro.api.registry.recovery_policies`
registry and :attr:`repro.simulation.simulator.SimulationConfig
.fault_recovery` names one:

``removal`` (default)
    Re-route every severed flow through the design context's router
    (:meth:`~repro.perf.design_context.DesignContext.router`) with the
    same congestion-aware ordering the synthesis pipeline uses, then
    re-run deadlock removal through the dirty-region ``"context"``
    engine, so the post-fault route set is again provably deadlock-free.
``reroute``
    The same re-routing pass without the removal re-run — leaves the
    degraded CDG as the re-router made it (used by the resilience
    test-suite to provoke genuine post-fault deadlocks).
``idle``
    No re-routing at all: severed flows are quiesced — their routes are
    parked and their traffic is lost at injection — until every link of
    the parked route is back, at which point the original route is
    reinstated verbatim.  The route set only ever shrinks back towards
    the pre-fault one, so a deadlock-removed design stays deadlock-free
    through any fail/restore sequence.
``protection``
    Protection switching: before the run starts the policy provisions a
    backup route per flow (link-disjoint from the primary where the
    topology allows) and re-runs deadlock removal on primaries and
    backups *together*, so every mixture of the two is a subset of one
    acyclic CDG.  At failure the backup is swapped in as-is; no mid-run
    routing or removal ever happens.  Switching is non-revertive — a
    flow stays on its backup when the primary's links return.

Determinism: the controller works on the simulator's private design copy,
draws no randomness of its own, and touches the network only between
cycles — so compiled and legacy engines replaying the same schedule stay
field-identical, which ``cross_check=True`` enforces for every policy.

The per-batch *recovery latency* is the number of cycles until every
packet that was in flight when the batch hit has left the network (by
delivery — the dropped ones are gone immediately); ``-1`` marks a batch
whose survivors never drained before the run ended.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.api.registry import recovery_policies
from repro.core.cdg import build_cdg
from repro.core.removal import remove_deadlocks
from repro.errors import RouteError, SimulationError
from repro.model.channels import Channel, Link
from repro.model.design import NocDesign
from repro.model.routes import Route, RouteSet
from repro.perf.design_context import DesignContext
from repro.simulation.events import EventSchedule

#: Names of the two PR 6 policies, kept as importable constants.
MODE_REMOVAL = "removal"
MODE_REROUTE = "reroute"


class RecoveryPolicy:
    """How the route set is repaired after a batch of fault events.

    A policy is registered by name in
    :data:`repro.api.registry.recovery_policies` and instantiated once
    per :class:`RecoveryController` (i.e. once per simulation run), so it
    may keep per-run state such as parked routes or provisioned backups.
    """

    #: Re-run deadlock removal after a repair that changed any route.
    runs_removal = False

    def __init__(self, controller: "RecoveryController"):
        self.controller = controller

    def prepare(self, design: NocDesign) -> NocDesign:
        """Pre-run hook; the returned design is the one the run uses.

        Called once, before the network is built.  The default returns
        the design unchanged; ``protection`` returns a re-provisioned
        design with backup resources baked in.
        """
        return design

    def repair(
        self,
        context: DesignContext,
        *,
        removed: List[Link],
        restored: List[Link],
        severed: List[str],
        old_routes: Dict[str, Route],
    ) -> None:
        """Repair ``controller.design.routes`` after a fault batch.

        Runs after the ``severed`` flows' routes (which crossed a link in
        ``removed``) were dropped; ``old_routes`` snapshots every route
        as it was when the batch hit and ``restored`` lists the links the
        same batch brought back.
        """
        raise NotImplementedError


@recovery_policies.register(MODE_REMOVAL)
class RemovalPolicy(RecoveryPolicy):
    """PR 6 default: congestion-aware re-routing + deadlock re-removal."""

    runs_removal = True

    def repair(self, context, *, removed, restored, severed, old_routes):
        self.controller.reroute_unrouted(context)


@recovery_policies.register(MODE_REROUTE)
class ReroutePolicy(RecoveryPolicy):
    """Re-routing only; the degraded CDG keeps whatever cycles it grew."""

    def repair(self, context, *, removed, restored, severed, old_routes):
        self.controller.reroute_unrouted(context)


@recovery_policies.register("idle")
class IdlePolicy(RecoveryPolicy):
    """Quiesce severed flows until their links restore; never re-route.

    A severed flow's route is parked verbatim; while parked the flow is
    unrouted, so its packets are lost at injection (the quiescing).  On
    every batch that restores links, any parked route whose links are all
    back is reinstated unchanged.  Because the live route set is always a
    subset of the pre-fault one, the CDG only ever loses edges relative
    to the (deadlock-removed) original.
    """

    def __init__(self, controller):
        super().__init__(controller)
        self._parked: Dict[str, Route] = {}

    def repair(self, context, *, removed, restored, severed, old_routes):
        for name in severed:
            self._parked[name] = old_routes[name]
        if not restored:
            return
        design = self.controller.design
        topology = design.topology
        for name in sorted(self._parked):
            route = self._parked[name]
            if all(topology.has_link(link) for link in route.links):
                design.routes.set_route(name, route)
                del self._parked[name]


#: Suffix of the pseudo-flows carrying backup routes through the
#: protection policy's joint deadlock-removal run.
BACKUP_SUFFIX = "__backup"


def _disjoint_path(
    topology, source: str, destination: str, avoid: Set[Link]
) -> Optional[Tuple[Link, ...]]:
    """Deterministic BFS shortest link path avoiding the ``avoid`` set.

    Ties break on sorted link order (lowest parallel index first), so the
    backup route is a pure function of the topology and the primary.
    """
    best: Dict[Tuple[str, str], Link] = {}
    for link in topology.links:  # sorted: lowest index wins per (src, dst)
        if link in avoid:
            continue
        best.setdefault((link.src, link.dst), link)
    adjacency: Dict[str, List[Tuple[str, Link]]] = {}
    for (src, dst), link in sorted(best.items()):
        adjacency.setdefault(src, []).append((dst, link))
    parents: Dict[str, Optional[Tuple[str, Link]]] = {source: None}
    frontier = [source]
    while frontier and destination not in parents:
        next_frontier: List[str] = []
        for switch in frontier:
            for neighbor, link in adjacency.get(switch, ()):
                if neighbor not in parents:
                    parents[neighbor] = (switch, link)
                    next_frontier.append(neighbor)
        frontier = next_frontier
    if destination not in parents:
        return None
    path: List[Link] = []
    node = destination
    while parents[node] is not None:
        switch, link = parents[node]
        path.append(link)
        node = switch
    return tuple(reversed(path))


@recovery_policies.register("protection")
class ProtectionPolicy(RecoveryPolicy):
    """Protection switching with pre-provisioned, jointly removed backups.

    :meth:`prepare` computes one backup route per flow — the shortest
    path avoiding every link of the primary, falling back to no backup
    when the topology has no disjoint path — then re-runs deadlock
    removal on a combined design carrying the primaries plus the backups
    as equal-bandwidth pseudo-flows.  Removal may re-home either onto
    fresh virtual channels; since the combined CDG ends up acyclic, every
    runtime mixture of primaries and swapped-in backups (a subset of the
    combined route set) is acyclic too.  The run then starts from the
    ported design: combined topology (with the provisioned VCs), original
    traffic, post-removal primary routes.

    At failure each severed flow switches to its first pre-provisioned
    candidate whose links all survive (primary first, then backup); a
    flow with no surviving candidate is quiesced like under ``idle``.
    Switching is non-revertive, but a quiesced flow re-enters on the
    first restore batch that revives one of its candidates.
    """

    def __init__(self, controller):
        super().__init__(controller)
        self._candidates: Dict[str, Tuple[Route, ...]] = {}

    def prepare(self, design: NocDesign) -> NocDesign:
        combined = design.copy()
        backup_names: Dict[str, str] = {}
        flows = sorted(design.traffic.flows, key=lambda f: (-f.bandwidth, f.name))
        for flow in flows:
            if not design.routes.has_route(flow.name):
                continue
            primary = design.routes.route(flow.name)
            if not primary.channels:
                continue  # intra-switch flow; nothing to protect
            backup_name = flow.name + BACKUP_SUFFIX
            if design.traffic.has_flow(backup_name):
                raise SimulationError(
                    f"flow name {backup_name!r} collides with the protection "
                    f"policy's backup namespace ({BACKUP_SUFFIX!r} suffix)"
                )
            path = _disjoint_path(
                design.topology,
                design.switch_of(flow.src),
                design.switch_of(flow.dst),
                set(primary.links),
            )
            if path is None:
                continue  # no disjoint path: the flow runs unprotected
            combined.traffic.add_flow(
                backup_name,
                flow.src,
                flow.dst,
                bandwidth=flow.bandwidth,
                packet_size_flits=flow.packet_size_flits,
            )
            combined.routes.set_route(
                backup_name, Route([Channel(link, 0) for link in path])
            )
            backup_names[flow.name] = backup_name
        if backup_names:
            remove_deadlocks(
                combined,
                in_place=True,
                engine="context",
                validate=False,
                count_initial_cycles=False,
            )
        ported_routes: Dict[str, Route] = {}
        for name in design.routes.flow_names:
            primary = combined.routes.route(name)
            ported_routes[name] = primary
            candidates = [primary]
            if name in backup_names:
                candidates.append(combined.routes.route(backup_names[name]))
            self._candidates[name] = tuple(candidates)
        return NocDesign(
            name=design.name,
            topology=combined.topology,
            traffic=design.traffic,
            core_map=dict(design.core_map),
            routes=RouteSet(ported_routes),
        )

    def repair(self, context, *, removed, restored, severed, old_routes):
        design = self.controller.design
        topology = design.topology
        routes = design.routes
        for name in sorted(self._candidates):
            if routes.has_route(name):
                continue
            for candidate in self._candidates[name]:
                if all(topology.has_link(link) for link in candidate.links):
                    routes.set_route(name, candidate)
                    break


class RecoveryController:
    """Applies a fault schedule to a running simulation and recovers.

    One controller serves one run: it keeps a cursor into the (sorted)
    event list, the VC/length book-keeping of currently failed links, the
    live-packet watch sets behind the per-batch recovery latencies, and
    the policy instance repairing the route set.  ``mode`` names an entry
    of :data:`repro.api.registry.recovery_policies`; the policy's
    :meth:`~RecoveryPolicy.prepare` hook may replace the design, so
    callers must build the network from :attr:`design` *after*
    construction.
    """

    def __init__(
        self,
        design: NocDesign,
        schedule: EventSchedule,
        *,
        mode: str = MODE_REMOVAL,
        congestion_factor: float = 0.5,
    ):
        self.mode = mode
        self.congestion_factor = congestion_factor
        self.policy: RecoveryPolicy = recovery_policies.get(mode)(self)
        self.design = self.policy.prepare(design)
        self._events = schedule.events
        self._cursor = 0
        #: Links currently failed: link -> (vc_count, length_mm or None).
        self._failed: Dict[Link, Tuple[int, Optional[float]]] = {}
        #: Active recovery watches: (stats index, batch cycle, live pids).
        self._watches: List[Tuple[int, int, Set[int]]] = []
        #: Links removed / restored by the batch currently being applied.
        self._batch_removed: List[Link] = []
        self._batch_restored: List[Link] = []

    # ------------------------------------------------------------------
    # topology surgery
    # ------------------------------------------------------------------
    def _fail_link(self, link: Link) -> bool:
        topology = self.design.topology
        if not topology.has_link(link):
            return False
        self._failed[link] = (
            topology.vc_count(link),
            topology.link_length(link, None),
        )
        topology.remove_link(link)
        self._batch_removed.append(link)
        return True

    def _restore_link(self, link: Link) -> bool:
        topology = self.design.topology
        if link not in self._failed or topology.has_link(link):
            return False
        vc_count, length_mm = self._failed.pop(link)
        topology.add_link(
            link.src, link.dst, index=link.index, vc_count=vc_count, length_mm=length_mm
        )
        self._batch_restored.append(link)
        return True

    def _apply_event(self, event) -> bool:
        topology = self.design.topology
        if event.action == "fail_link":
            return self._fail_link(event.link)
        if event.action == "restore_link":
            return self._restore_link(event.link)
        if event.action == "fail_router":
            if not topology.has_switch(event.switch):
                return False
            changed = False
            for link in topology.in_links(event.switch) + topology.out_links(event.switch):
                changed |= self._fail_link(link)
            return changed
        # restore_router
        changed = False
        for link in sorted(self._failed):
            if link.src == event.switch or link.dst == event.switch:
                changed |= self._restore_link(link)
        return changed

    # ------------------------------------------------------------------
    # recovery pipeline
    # ------------------------------------------------------------------
    def reroute_unrouted(self, context: DesignContext) -> None:
        """Re-route every unrouted flow against the degraded topology.

        The shared repair step of the ``removal`` and ``reroute``
        policies.  Mirrors the synthesis routing pass: flows in
        descending-bandwidth order, surviving routes committed first so
        the congestion weights the re-routed flows see reflect the
        traffic that is actually staying put.  A flow with no remaining
        path stays unrouted (its future packets are lost at injection).
        """
        design = self.design
        routes = design.routes
        router = context.router(
            congestion_factor=self.congestion_factor,
            total_bandwidth=max(design.traffic.total_bandwidth, 1e-9),
        )
        flows = sorted(design.traffic.flows, key=lambda f: (-f.bandwidth, f.name))
        unrouted = []
        for flow in flows:
            if routes.has_route(flow.name):
                router.commit(routes.route(flow.name), flow.bandwidth)
            elif design.switch_of(flow.src) != design.switch_of(flow.dst):
                unrouted.append(flow)
        for flow in unrouted:
            try:
                route = router.route(
                    design.switch_of(flow.src), design.switch_of(flow.dst)
                )
            except RouteError:
                continue
            routes.set_route(flow.name, route)
            router.commit(route, flow.bandwidth)

    def on_cycle(self, cycle: int, network, stats) -> None:
        """Apply every event due at (or before) ``cycle``, then recover."""
        events = self._events
        due = []
        while self._cursor < len(events) and events[self._cursor].cycle <= cycle:
            due.append(events[self._cursor])
            self._cursor += 1
        if not due:
            return
        stats.fault_events_applied += len(due)

        design = self.design
        routes = design.routes
        old_routes = {name: routes.route(name) for name in routes.flow_names}

        self._batch_removed = []
        self._batch_restored = []
        changed_topology = False
        for event in due:
            changed_topology |= self._apply_event(event)
        removed = self._batch_removed
        restored = self._batch_restored
        if not changed_topology:
            return

        context = DesignContext.of(design)
        context.notify_topology_changed()
        # One pass over the route set finds every flow crossing a removed
        # link (flow-name order).
        removed_links = set(removed)
        severed = [
            name
            for name, route in routes.items()
            if any(channel.link in removed_links for channel in route.channels)
        ]
        for name in severed:
            routes.remove_route(name)

        self.policy.repair(
            context,
            removed=removed,
            restored=restored,
            severed=severed,
            old_routes=old_routes,
        )
        route_changed = routes.flow_names != sorted(old_routes) or any(
            routes.route(name) != old_routes[name] for name in routes.flow_names
        )
        if route_changed and self.policy.runs_removal:
            remove_deadlocks(
                design,
                in_place=True,
                engine="context",
                validate=False,
                count_initial_cycles=False,
            )

        # Resilience book-keeping against the *final* post-recovery routes.
        doomed = []
        rerouted = 0
        for name, old_route in old_routes.items():
            if not routes.has_route(name):
                doomed.append(name)
                rerouted += 1
            elif routes.route(name) != old_route:
                doomed.append(name)
                rerouted += 1
        for name in routes.flow_names:
            if name not in old_routes:
                rerouted += 1
        stats.flows_rerouted += rerouted

        dropped_packets, dropped_flits = network.drop_flows(doomed)
        stats.packets_lost += dropped_packets
        stats.flits_lost += dropped_flits
        network.sync_with_design()

        acyclic = build_cdg(design).is_acyclic()
        stats.post_fault_deadlock_free = (
            acyclic
            if stats.post_fault_deadlock_free is None
            else stats.post_fault_deadlock_free and acyclic
        )

        survivors = network.live_packet_ids()
        index = len(stats.recovery_cycles)
        if survivors:
            stats.recovery_cycles.append(-1)
            self._watches.append((index, cycle, survivors))
        else:
            stats.recovery_cycles.append(0)

    def after_step(self, cycle: int, network, stats) -> None:
        """Advance the recovery-latency watches after one network step."""
        if not self._watches:
            return
        remaining = []
        for index, batch_cycle, pids in self._watches:
            pids = {pid for pid in pids if network.is_packet_live(pid)}
            if pids:
                remaining.append((index, batch_cycle, pids))
            else:
                stats.recovery_cycles[index] = cycle - batch_cycle + 1
        self._watches = remaining

    def finalise(self, stats) -> None:
        """End-of-run hook: undrained watches keep their ``-1`` marker."""
        self._watches.clear()
