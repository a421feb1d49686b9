"""Per-design cache of the state a removal run or a simulation grid reads twice.

Algorithm 1 breaks cycles one at a time, and every break needs the
channel dependency graph of the design's *current* routes.  Rebuilding it
per break scans the whole route set; :class:`DesignContext` instead keeps
one :class:`~repro.perf.cdg_index.CDGIndex`, the interned per-flow
channel-id arrays and the :class:`~repro.perf.cost_index.CycleCostEngine`
bound to them alive for the whole run, and applies the *delta* of every
break (:meth:`DesignContext.apply_route_change`) instead of rebuilding.
The index is keyed on the route set's mutation version, so routes
rewritten out of band are answered with a full rebuild and a stale
context can never serve a wrong CDG.

The context also holds three slots other layers fill for the lanes of one
simulation grid: the compiled simulation template (``sim_template``), the
CDG deadlock verdicts are checked against (``witness_cdg``) and the
``protection`` recovery policy's provisioned design (``protection``).
:meth:`DesignContext.router` is the construction point for routing
engines outside the perf layer; each call builds a fresh switch graph.

Contexts attach to the design instance (:meth:`DesignContext.of`), so every
caller holding the same design object shares one context, and
``design.copy()`` — which creates a fresh instance — starts from a clean
slate.  Module-level :data:`counters` aggregate build/reuse events across
all contexts; the benchmark harness reads them to fail loudly when a code
change silently stops using the indexed state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.model.channels import Channel
from repro.model.design import NocDesign
from repro.model.routes import Route
from repro.perf.cdg_index import CDGIndex
from repro.perf.cost_index import CycleCostEngine
from repro.perf.route_engine import IndexedRouter

#: Attribute name the per-design context is cached under on the design.
_CONTEXT_ATTR = "_design_context"


@dataclass
class ContextCounters:
    """Build/reuse statistics, aggregated over all :class:`DesignContext`\\ s.

    ``route_deltas`` counts route changes applied to a CDG index,
    ``cost_tables_indexed`` the cost tables the indexed engine built, and
    ``sim_template_*`` the compiled-simulation templates built and reused.
    The benchmarks read these so a regression that silently falls back to
    rebuilding per call fails the perf smoke instead of just getting slower.
    """

    contexts_created: int = 0
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
    """Shared removal and simulation state for one :class:`NocDesign`.

    Everything is built lazily: a context created for a simulation never
    pays for the CDG index.
    """

    def __init__(self, design: NocDesign):
        self.design = design
        counters.contexts_created += 1
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

    def notify_topology_changed(self) -> None:
        """Drop the simulation template after a change to the link set.

        Fault injection degrades the topology mid-simulation; the compiled
        template describes the old link set and must be rebuilt.  The CDG
        index survives: it is keyed on the route-set version, and route
        changes caused by the fault flow through the normal route APIs.
        """
        self.sim_template = None

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def router(
        self,
        *,
        congestion_factor: float = 0.0,
        total_bandwidth: float = 1.0,
    ) -> IndexedRouter:
        """A congestion-aware :class:`IndexedRouter` over the current topology.

        The construction point for routing engines on this design: callers
        outside the perf layer take a router from the context instead of
        naming the engine class (so the rest of the tree can honour the
        ``registry-discipline`` lint rule's "no ad-hoc engine
        construction").  Each call returns a fresh router with zeroed
        congestion state over a switch graph built from the topology as it
        is now.
        """
        return IndexedRouter(
            self.design.topology,
            congestion_factor=congestion_factor,
            total_bandwidth=total_bandwidth,
        )

    # ------------------------------------------------------------------
    # interned routes / CDG / cost tables
    # ------------------------------------------------------------------
    def notify_channel_added(self, channel: Channel) -> None:
        """Intern a duplicated channel (a new VC, or the VC of a new link).

        The cost engine refers to channels by id, so a channel the removal
        algorithm adds is interned before any route uses it.
        """
        if self._cdg is not None:
            self._cdg.intern(channel)

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
            f"indexed_flows={len(self._route_ids)})"
        )
