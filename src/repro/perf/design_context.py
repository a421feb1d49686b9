"""Per-design cache of expensive derived routing/removal state.

Every stage of the pipeline derives the same handful of structures from a
:class:`~repro.model.design.NocDesign` — the int-relabelled
:class:`~repro.perf.route_engine.SwitchGraph`, the up*/down* BFS
levels/orientation, the interned channel table and the per-flow channel-id
arrays — and before this module each call site rebuilt them from scratch:
every ``compute_routes`` call built a fresh ``SwitchGraph``, every up*/down*
ablation re-derived the orientation, and every cycle break re-scanned the
route set with tuple-of-dataclass comparisons.

:class:`DesignContext` owns that state once per design and keeps it alive
across the many routing and cycle-break iterations of a removal run,
applying *deltas* for the mutations the removal algorithm performs instead
of rebuilding (mirroring how :class:`~repro.perf.cdg_index.CDGIndex`
already treats the CDG):

* duplicating a channel as an extra **VC** changes no physical link, so the
  switch graph survives untouched and only the new channel is interned;
* duplicating a channel as a parallel **physical link** appends one link to
  the switch graph in place (:meth:`SwitchGraph.add_link`), preserving the
  traversal order the routing tie-break depends on;
* re-routing a flow replaces its channel-id array and applies the route
  delta to the underlying :class:`CDGIndex`.

Out-of-band topology edits (anything that changes the link set without
going through :meth:`notify_link_added`) are caught by a cheap link-count
staleness check and answered with a full rebuild, so a stale context can
never serve wrong routes — the context-invalidation tests assert exactly
that.

Contexts attach to the design instance (:meth:`DesignContext.of`), so every
caller holding the same design object shares one context, and
``design.copy()`` — which creates a fresh instance — naturally starts from
a clean slate.  Module-level :data:`counters` aggregate build/reuse events
across all contexts; the benchmark harness reads them to fail loudly when a
code change silently stops reusing cached state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.model.channels import Channel, Link
from repro.model.design import NocDesign
from repro.model.routes import Route
from repro.perf.cdg_index import CDGIndex
from repro.perf.cost_index import CycleCostEngine
from repro.perf.route_engine import IndexedRouter, SwitchGraph

#: Attribute name the per-design context is cached under on the design.
_CONTEXT_ATTR = "_design_context"


@dataclass
class ContextCounters:
    """Build/reuse statistics, aggregated over all :class:`DesignContext`\\ s.

    ``*_builds`` count from-scratch constructions, ``*_reuses`` count cache
    hits and ``graph_deltas`` counts in-place link appends.  The benchmark
    conftest surfaces these so a regression that silently falls back to
    rebuilding per call fails the perf smoke instead of just getting slower.
    """

    contexts_created: int = 0
    contexts_forked: int = 0
    graph_builds: int = 0
    graph_reuses: int = 0
    graph_deltas: int = 0
    updown_builds: int = 0
    updown_reuses: int = 0
    route_deltas: int = 0
    cost_tables_indexed: int = 0
    sim_template_builds: int = 0
    sim_template_reuses: int = 0

    def reset(self) -> None:
        """Zero every counter (one measurement window begins)."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy of the current counts."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


#: Global counters shared by every context (reset via ``counters.reset()``).
counters = ContextCounters()


class DesignContext:
    """Shared routing/removal state for one :class:`NocDesign`.

    Everything is built lazily: a context created for a removal run never
    pays for the up*/down* orientation, and a context created for routing
    never pays for the CDG index.
    """

    def __init__(self, design: NocDesign):
        self.design = design
        counters.contexts_created += 1
        # --- switch graph -------------------------------------------------
        self._graph: Optional[SwitchGraph] = None
        self._graph_link_count: int = -1
        # --- up*/down* state (per resolved root) --------------------------
        self._updown: Dict[str, Tuple[Dict[Link, str], List[bool]]] = {}
        self._updown_link_count: int = -1
        # --- interned routes / CDG ---------------------------------------
        self._cdg: Optional[CDGIndex] = None
        self._cdg_routes_version: int = -1
        self._route_ids: Dict[str, Tuple[int, ...]] = {}
        self._cost_engine: Optional[CycleCostEngine] = None
        # --- compiled-simulation template (set by repro.perf.sim_engine) --
        self.sim_template = None
        # --- (routes, version, CDG) deadlock verdicts are checked against
        # (set by repro.simulation.deadlock.check_cdg_witness) -------------
        self.witness_cdg = None
        # --- (routes, version, topology, provisioned design, candidates) of
        # the protection recovery policy (set by repro.simulation.recovery) -
        self.protection = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, design: NocDesign) -> "DesignContext":
        """The context attached to ``design``, creating it on first use.

        The context is stored on the design instance itself, so distinct
        copies of a design get distinct contexts and the cache dies with
        the design object.
        """
        context = getattr(design, _CONTEXT_ATTR, None)
        if context is None or context.design is not design:
            context = cls(design)
            setattr(design, _CONTEXT_ATTR, context)
        return context

    def fork_to(self, clone_design: NocDesign) -> Optional["DesignContext"]:
        """Seed a fresh context for an identical copy of this design.

        Called by :meth:`repro.model.design.NocDesign.copy`: when the link
        sets are equal and this context holds a CDG index synchronised to
        the source's current routes (which the copy replicates verbatim),
        the copy's context starts from a *cloned* index + id arrays instead
        of rebuilding them from the route set — the per-run rebuild the
        removal engine used to pay on every ``design.copy()``.  Any doubt
        (diverged links, unsynchronised or unbuilt index) returns ``None``
        and the copy lazily builds its own state as before.

        The clone is deep (:meth:`CDGIndex.clone`), so removal mutations on
        the copy never leak back into this context.
        """
        if self._cdg is None or self._cdg_routes_version != self.design.routes.version:
            return None
        if self.design.topology._links != clone_design.topology._links:
            return None
        if len(self.design.routes) != len(clone_design.routes):
            # Cheap sanity token only: the caller contract (copy()) makes the
            # route sets identical, and a deep per-channel comparison here
            # would cancel part of the rebuild savings on the hot path.
            return None
        forked = DesignContext(clone_design)
        forked._cdg = self._cdg.clone()
        forked._route_ids = dict(self._route_ids)
        forked._cdg_routes_version = clone_design.routes.version
        setattr(clone_design, _CONTEXT_ATTR, forked)
        counters.contexts_forked += 1
        return forked

    # ------------------------------------------------------------------
    # switch graph
    # ------------------------------------------------------------------
    def graph(self) -> SwitchGraph:
        """The design's :class:`SwitchGraph`, built once and delta-maintained.

        The graph always comes back with default hop-count weights — a
        previous caller (e.g. a congestion-aware routing pass) may have
        left its weights behind, and handing those to the next caller would
        make routing depend on call history.  Callers needing custom
        weights set them after taking the graph, exactly as with a fresh
        build.

        A mismatch between the recorded and the topology's current link
        count means links were added or removed without
        :meth:`notify_link_added` — the graph is then rebuilt from scratch
        (correctness over cache warmth).
        """
        topology = self.design.topology
        if (
            self._graph is not None
            and self._graph.topology is topology
            and self._graph_link_count == topology.link_count
        ):
            self._graph.set_weights(None)
            counters.graph_reuses += 1
            return self._graph
        self._graph = SwitchGraph(topology)
        self._graph_link_count = topology.link_count
        counters.graph_builds += 1
        return self._graph

    def router(
        self,
        *,
        congestion_factor: float = 0.0,
        total_bandwidth: float = 1.0,
    ) -> IndexedRouter:
        """A congestion-aware :class:`IndexedRouter` over the cached graph.

        The construction point for routing engines on this design: callers
        outside the perf layer take a router from the context instead of
        naming the engine class, so the engine choice and the graph it
        runs on share one owner (and the rest of the tree can honour the
        ``registry-discipline`` lint rule's "no ad-hoc engine
        construction").  Each call returns a fresh router with zeroed
        congestion state over the shared, delta-maintained graph.
        """
        return IndexedRouter(
            self.design.topology,
            congestion_factor=congestion_factor,
            total_bandwidth=total_bandwidth,
            graph=self.graph(),
        )

    def notify_link_added(self, link: Link) -> None:
        """Apply the delta for a link the removal algorithm just added.

        Appends the link to the cached graph in place (when one is built)
        and invalidates the up*/down* caches, whose per-link ``up`` flags
        are positional over the graph's link ids.
        """
        if self._graph is not None and self._graph.topology is self.design.topology:
            self._graph.add_link(link)
            self._graph_link_count = self.design.topology.link_count
            counters.graph_deltas += 1
        self._updown.clear()
        self._updown_link_count = -1

    def notify_topology_changed(self) -> None:
        """Invalidate every structure derived from the physical link set.

        The link-count staleness check in :meth:`graph` cannot see a change
        that removes one link and adds another (the counts alias), so any
        mutation that *removes* links — fault injection degrading the
        topology mid-simulation — must call this instead of relying on it.
        The CDG index survives: it is keyed on the route-set version, and
        route changes caused by the fault flow through the normal route
        APIs.
        """
        self._graph = None
        self._graph_link_count = -1
        self._updown.clear()
        self._updown_link_count = -1
        self.sim_template = None

    def notify_channel_added(self, channel: Channel) -> None:
        """Record a duplicated channel (new VC or a VC of a new link).

        A fresh VC on an existing link changes neither the switch graph nor
        the up*/down* orientation; the channel is merely interned so the
        cost engine can refer to it by id.  A channel whose link is unknown
        to the topology's current graph signals a parallel-link duplicate —
        :meth:`notify_link_added` handles that case.
        """
        if self._cdg is not None:
            self._cdg.intern(channel)

    # ------------------------------------------------------------------
    # up*/down* state
    # ------------------------------------------------------------------
    def updown_state(self, root: Optional[str] = None) -> Tuple[Dict[Link, str], List[bool]]:
        """``(orientation, per-link-id up flags)`` for up*/down* routing.

        Cached per resolved root and invalidated whenever the topology's
        link set changes (the flags are positional over the graph's link
        ids).  The orientation itself is computed by
        :func:`repro.routing.turns.updown_orientation` — imported lazily so
        the two modules can depend on each other without an import cycle.
        """
        from repro.routing.turns import updown_orientation

        topology = self.design.topology
        resolved = root if root is not None else min(topology.switches)
        if self._updown_link_count != topology.link_count:
            self._updown.clear()
            self._updown_link_count = topology.link_count
        cached = self._updown.get(resolved)
        if cached is not None:
            counters.updown_reuses += 1
            return cached
        graph = self.graph()
        orientation = updown_orientation(topology, resolved)
        up_flags = [orientation[link] == "up" for link in graph.links]
        cached = (orientation, up_flags)
        self._updown[resolved] = cached
        counters.updown_builds += 1
        return cached

    # ------------------------------------------------------------------
    # interned routes / CDG / cost tables
    # ------------------------------------------------------------------
    def cdg_index(self) -> CDGIndex:
        """The incrementally maintained CDG of the design's current routes.

        Built from the route set on first access; afterwards every route
        change must flow through :meth:`apply_route_change` to keep it (and
        the per-flow id arrays) exact.  Route changes that did *not* —
        detected by comparing the route set's mutation
        :attr:`~repro.model.routes.RouteSet.version` against the one the
        index was synchronised to — trigger a from-scratch rebuild, so a
        context left attached to a design whose routes were rewritten
        out-of-band (e.g. a ``compute_routes`` call between two in-place
        removal runs) can never serve a stale CDG.
        """
        routes = self.design.routes
        if self._cdg is not None and self._cdg_routes_version != routes.version:
            self._cdg = None
            self._route_ids.clear()
            self._cost_engine = None
        if self._cdg is None:
            self._cdg = CDGIndex()
            for flow_name, route in routes.items():
                self._add_route_ids(flow_name, route)
            self._cdg_routes_version = routes.version
        return self._cdg

    def _add_route_ids(self, flow_name: str, route: Route) -> None:
        cdg = self._cdg
        ids = tuple(cdg.intern(channel) for channel in route.channels)
        cdg.add_route(flow_name, route.channels)
        self._route_ids[flow_name] = ids

    def route_ids(self, flow_name: str) -> Tuple[int, ...]:
        """The flow's route as a tuple of interned channel ids."""
        self.cdg_index()
        return self._route_ids[flow_name]

    def apply_route_change(self, flow_name: str, old_route: Route, new_route: Route) -> None:
        """Replace one flow's route in the CDG index and the id arrays.

        Re-synchronises the recorded route-set version: the caller is
        telling us it accounted for the mutations up to this point, so the
        next :meth:`cdg_index` access must not mistake them for an
        out-of-band change and throw the incremental state away.
        """
        cdg = self._cdg if self._cdg is not None else self.cdg_index()
        cdg.apply_route_change(flow_name, old_route.channels, new_route.channels)
        self._route_ids[flow_name] = tuple(
            cdg.intern(channel) for channel in new_route.channels
        )
        self._cdg_routes_version = self.design.routes.version
        counters.route_deltas += 1

    def flows_creating(self, edge: Tuple[Channel, Channel]) -> List[str]:
        """Names of flows whose route creates the dependency ``edge``, sorted.

        Served from the CDG index's per-edge flow sets in time proportional
        to the answer — the indexed replacement for
        :func:`repro.core.breaker.flows_creating_dependency`, which scans
        every route of the design (the sorted order matches it exactly,
        because :meth:`RouteSet.items` iterates in sorted-name order).
        """
        cdg = self.cdg_index()
        first, second = cdg.intern(edge[0]), cdg.intern(edge[1])
        return sorted(cdg.flows_on_edge(first, second))

    def cost_engine(self) -> CycleCostEngine:
        """The int-indexed cost-table engine bound to this context's index."""
        if self._cost_engine is None:
            self._cost_engine = CycleCostEngine(self.cdg_index(), self._route_ids)
        return self._cost_engine

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"DesignContext(design={self.design.name!r}, "
            f"graph={'cached' if self._graph is not None else 'unbuilt'}, "
            f"updown_roots={len(self._updown)}, "
            f"indexed_flows={len(self._route_ids)})"
        )
