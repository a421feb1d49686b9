"""repro.perf — the performance core of the reproduction.

Behaviour-preserving accelerations of the seed code paths:

* :mod:`repro.perf.cdg_index` — :class:`~repro.perf.cdg_index.CDGIndex`, an
  incrementally maintained channel dependency graph over dense integer ids
  with dirty-region tracking, the interned route of every flow and the
  flows creating each dependency; a removal run builds one and applies
  each cycle break's route delta to it (replaces the per-iteration
  ``build_cdg`` rebuild of Algorithm 1's outer loop);
* :mod:`repro.perf.cycle_search` — SCC-pruned, per-component-cached,
  depth-limited smallest-cycle search that returns exactly what
  :func:`repro.core.cycles.find_smallest_cycle` would on a fresh rebuild,
  and the Johnson enumerator behind every elementary-cycle count;
* :mod:`repro.perf.route_engine` — int-relabelled switch graph with a
  per-node label Dijkstra and incremental congestion reweighting (replaces
  the exponential path-tuple route search without changing any route);
* :mod:`repro.perf.cost_index` —
  :class:`~repro.perf.cost_index.CycleCostEngine`, Algorithm 2's forward
  and backward cost tables from one pass over interned channel-id arrays;
* :mod:`repro.perf.executor` — an ordered, serial-fallback
  ``ProcessPoolExecutor`` map used by the plan runner and the CLI's
  ``--jobs`` flag;
* :mod:`repro.perf.counters` — the build/reuse counters the benchmark
  scripts read to check that the fast paths ran on their indexed state.
"""

from repro.perf.cdg_index import CDGIndex, channel_sort_key
from repro.perf.cost_index import CycleCostEngine, build_cost_tables
from repro.perf.cycle_search import (
    IncrementalCycleSearch,
    count_cycles_indexed,
    tarjan_sccs,
)
from repro.perf.counters import PerfCounters, counters
from repro.perf.executor import parallel_map, resolve_jobs
from repro.perf.route_engine import IndexedRouter, SwitchGraph

__all__ = [
    "CDGIndex",
    "channel_sort_key",
    "CycleCostEngine",
    "IncrementalCycleSearch",
    "IndexedRouter",
    "PerfCounters",
    "SwitchGraph",
    "build_cost_tables",
    "count_cycles_indexed",
    "counters",
    "tarjan_sccs",
    "parallel_map",
    "resolve_jobs",
]
