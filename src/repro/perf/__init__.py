"""repro.perf — the performance core of the reproduction.

Four pieces, all behaviour-preserving accelerations of the seed code paths:

* :mod:`repro.perf.cdg_index` — :class:`~repro.perf.cdg_index.CDGIndex`, an
  incrementally maintained channel dependency graph over dense integer ids
  with dirty-region tracking (replaces the per-iteration ``build_cdg``
  rebuild of Algorithm 1's outer loop);
* :mod:`repro.perf.cycle_search` — SCC-pruned, per-component-cached,
  depth-limited smallest-cycle search that returns exactly what
  :func:`repro.core.cycles.find_smallest_cycle` would on a fresh rebuild;
* :mod:`repro.perf.route_engine` — int-relabelled switch graph with a
  per-node label Dijkstra and incremental congestion reweighting (replaces
  the exponential path-tuple route search without changing any route);
* :mod:`repro.perf.design_context` —
  :class:`~repro.perf.design_context.DesignContext`, the per-design cache
  of shared routing/removal state (switch graph, up*/down* orientation,
  interned routes) kept alive across routing calls and cycle breaks by
  applying channel-duplication deltas instead of rebuilding;
* :mod:`repro.perf.cost_index` —
  :class:`~repro.perf.cost_index.CycleCostEngine`, Algorithm 2's forward
  and backward cost tables from one pass over interned channel-id arrays;
* :mod:`repro.perf.executor` — an ordered, serial-fallback
  ``ProcessPoolExecutor`` map used by the plan runner and the CLI's
  ``--jobs`` flag.
"""

from repro.perf.cdg_index import CDGIndex, channel_sort_key
from repro.perf.cost_index import CycleCostEngine, build_cost_tables
from repro.perf.cycle_search import (
    IncrementalCycleSearch,
    count_cycles_indexed,
    tarjan_sccs,
)
from repro.perf.design_context import ContextCounters, DesignContext, counters
from repro.perf.executor import parallel_map, resolve_jobs
from repro.perf.route_engine import IndexedRouter, SwitchGraph

__all__ = [
    "CDGIndex",
    "channel_sort_key",
    "ContextCounters",
    "CycleCostEngine",
    "DesignContext",
    "IncrementalCycleSearch",
    "IndexedRouter",
    "SwitchGraph",
    "build_cost_tables",
    "count_cycles_indexed",
    "counters",
    "tarjan_sccs",
    "parallel_map",
    "resolve_jobs",
]
