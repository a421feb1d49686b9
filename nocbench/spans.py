"""Per-layer attribution for a traced benchmark run.

:class:`Tracer` wraps the public function each layer exposes, at the
binding its caller uses (``repro.synthesis.builder.partition_cores``,
``repro.analysis.experiments.remove_deadlocks``, ...), so nothing in the
program changes.  Each call becomes a span ``(id, name, start, end,
parent)`` kept in memory; counters ride on the same wrappers.  A span's
self time is its duration minus the time its child spans cover, and the
spans without a parent are the run's attributed wall time.

:class:`SimCallCounter` is the untimed subset every run installs: it only
counts calls into the two simulation entry points, which is how the
``latency-grid`` check proves the batched path ran.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: ``initial_cycle_count`` stops counting here (``core/removal.py``), so a
#: record at this value carries a lower bound, not an exact count.
INITIAL_CYCLE_CAP = 2000

#: Artifact-cache kinds the runner uses (``api/runner.py``).
CACHE_KINDS = ("result", "design", "costs")

#: Every per-layer metric a traced run reports, with its unit, in report
#: order.  ``trace.overhead_s`` compares a traced with an untraced run, so
#: ``run.py`` computes it; the rest come from :meth:`Tracer.layer_metrics`.
LAYER_UNITS = {
    "synthesis.calls": "count",
    "synthesis.self_s": "s",
    "synthesis.partition_s": "s",
    "synthesis.floorplan_s": "s",
    "routing.calls": "count",
    "routing.s": "s",
    "removal.calls": "count",
    "removal.s": "s",
    "removal.iterations": "count",
    "removal.initial_count_capped_share": "ratio",
    "ordering.s": "s",
    "power.calls": "count",
    "power.s": "s",
    "sim.grid_calls": "count",
    "sim.point_calls": "count",
    "sim.s": "s",
    "sim.runs": "count",
    "sim.lane_cycles": "count",
    "sim.drain_share": "ratio",
    "sim.ns_per_lane_cycle": "ns",
    "sim.deadlocked_runs": "count",
    "recovery.s": "s",
    "recovery.batches": "count",
    "recovery.removal_calls": "count",
    "recovery.removal_s": "s",
    "recovery.flows_rerouted": "count",
    "recovery.never_drained": "count",
    "cache.get_s": "s",
    "cache.put_s": "s",
    **{f"cache.hits.{kind}": "count" for kind in CACHE_KINDS},
    **{f"cache.misses.{kind}": "count" for kind in CACHE_KINDS},
    **{f"cache.bytes.{kind}": "bytes" for kind in CACHE_KINDS},
    "serialization.calls": "count",
    "serialization.s": "s",
    "trace.attributed_share": "ratio",
    "trace.overhead_s": "s",
}

Span = Tuple[int, str, float, float, Optional[int]]


class _Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, build: Callable[[Callable], Callable]):
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, build(original))

    def undo(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


class SimCallCounter:
    """Counts ``measure_load_grid`` / ``measure_load_point`` calls, untimed."""

    def __init__(self):
        self.grid_calls = 0
        self.point_calls = 0
        self._patches = _Patches()

    def install(self) -> "SimCallCounter":
        from repro.analysis import performance

        def counting(field: str):
            def build(original):
                def wrapper(*args, **kwargs):
                    setattr(self, field, getattr(self, field) + 1)
                    return original(*args, **kwargs)

                return wrapper

            return build

        self._patches.replace(performance, "measure_load_grid", counting("grid_calls"))
        self._patches.replace(performance, "measure_load_point", counting("point_calls"))
        return self

    def uninstall(self) -> None:
        self._patches.undo()

    def sim_calls(self) -> Tuple[int, int]:
        return self.grid_calls, self.point_calls


class Tracer:
    """Spans and counters around every layer's entry point."""

    def __init__(self):
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        self._next_id = 0
        self._patches = _Patches()
        self._origin = time.perf_counter()

    # ------------------------------------------------------------------
    def _timed(self, name: str, after: Optional[Callable] = None):
        """Wrapper factory: one span per call, then ``after(result, args, kwargs)``."""

        def build(original):
            def wrapper(*args, **kwargs):
                span_id = self._next_id
                self._next_id += 1
                parent = self._stack[-1] if self._stack else None
                self._stack.append(span_id)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._stack.pop()
                    self.spans.append((span_id, name, start, end, parent))
                if after is not None:
                    after(result, args, kwargs)
                return result

            return wrapper

        return build

    def _on_cycle(self, original):
        """``RecoveryController.on_cycle`` runs every cycle; keep only batches."""

        def wrapper(controller, cycle, network, stats):
            applied = stats.fault_events_applied
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span_id)
            start = time.perf_counter()
            try:
                return original(controller, cycle, network, stats)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                if stats.fault_events_applied != applied:
                    self.spans.append((span_id, "recovery", start, end, parent))

        return wrapper

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        from repro.analysis import experiments, performance
        from repro.api import cache, runner
        from repro.simulation import recovery
        from repro.synthesis import builder

        count = self.counters
        patch = self._patches.replace

        patch(builder, "synthesize_design", self._timed("synthesis"))
        patch(builder, "partition_cores", self._timed("synthesis.partition"))
        patch(builder, "assign_link_lengths", self._timed("synthesis.floorplan"))
        patch(builder, "compute_routes", self._timed("routing"))

        def removal_done(result, args, kwargs):
            count["removal.iterations"] += result.iterations

        patch(experiments, "remove_deadlocks", self._timed("removal", removal_done))
        patch(experiments, "apply_resource_ordering", self._timed("ordering"))
        patch(experiments, "estimate_power_and_area", self._timed("power"))

        def grid_done(metrics, args, kwargs):
            self._count_lanes(metrics, kwargs.get("max_cycles", 3000))

        def point_done(metrics, args, kwargs):
            self._count_lanes([metrics], kwargs.get("max_cycles", 3000))
            resilience = metrics.get("resilience", {})
            count["recovery.flows_rerouted"] += resilience.get("flows_rerouted", 0)
            count["recovery.never_drained"] += resilience.get("batches_never_drained", 0)

        patch(performance, "measure_load_grid", self._timed("sim.grid", grid_done))
        patch(performance, "measure_load_point", self._timed("sim.point", point_done))
        patch(recovery.RecoveryController, "on_cycle", self._on_cycle)
        patch(recovery, "remove_deadlocks", self._timed("recovery.removal"))

        def get_done(document, args, kwargs):
            kind = args[1]
            count[f"cache.{'hits' if document is not None else 'misses'}.{kind}"] += 1

        def put_done(path, args, kwargs):
            count[f"cache.bytes.{args[1]}"] += path.stat().st_size

        patch(cache.ArtifactCache, "get", self._timed("cache.get", get_done))
        patch(cache.ArtifactCache, "put", self._timed("cache.put", put_done))
        patch(runner, "design_to_dict", self._timed("serialization"))
        patch(runner, "design_from_dict", self._timed("serialization"))
        return self

    def uninstall(self) -> None:
        self._patches.undo()

    def write(self, path) -> None:
        """Write the spans as JSON lines, times in seconds since construction."""
        with open(path, "w") as handle:
            for span_id, name, start, end, parent in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "name": name, "parent": parent,
                    "start": start - self._origin, "end": end - self._origin,
                }) + "\n")

    def sim_calls(self) -> Tuple[int, int]:
        """``(measure_load_grid calls, measure_load_point calls)``."""
        names = [span[1] for span in self.spans]
        return names.count("sim.grid"), names.count("sim.point")

    def _count_lanes(self, metrics_list, sim_cycles: int) -> None:
        count = self.counters
        for metrics in metrics_list:
            cycles = metrics["cycles_run"]
            count["sim.runs"] += 1
            count["sim.lane_cycles"] += cycles
            count["sim.drain_cycles"] += max(0, cycles - sim_cycles)
            count["sim.deadlocked_runs"] += bool(metrics["deadlocked"])

    # ------------------------------------------------------------------
    def layer_metrics(self, wall_s: float, records) -> Dict[str, float]:
        """Fold the spans and counters into the per-layer metric set.

        ``records`` are the run's :class:`RunResult` objects; the removal
        cap share is a property of the records, not of the calls.
        """
        calls: Dict[str, int] = defaultdict(int)
        total: Dict[str, float] = defaultdict(float)
        child_time: Dict[int, float] = defaultdict(float)
        root_time = 0.0
        for _, name, start, end, parent in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent is None:
                root_time += end - start
            else:
                child_time[parent] += end - start
        self_time: Dict[str, float] = defaultdict(float)
        for span_id, name, start, end, _ in self.spans:
            self_time[name] += end - start - child_time[span_id]

        count = self.counters
        lane_cycles = count["sim.lane_cycles"]
        sim_s = total["sim.grid"] + total["sim.point"]
        capped = sum(1 for r in records if r.initial_cycle_count >= INITIAL_CYCLE_CAP)
        metrics = {
            "synthesis.calls": calls["synthesis"],
            "synthesis.self_s": self_time["synthesis"],
            "synthesis.partition_s": total["synthesis.partition"],
            "synthesis.floorplan_s": total["synthesis.floorplan"],
            "routing.calls": calls["routing"],
            "routing.s": total["routing"],
            "removal.calls": calls["removal"],
            "removal.s": total["removal"],
            "removal.iterations": count["removal.iterations"],
            "removal.initial_count_capped_share": capped / len(records) if records else 0.0,
            "ordering.s": total["ordering"],
            "power.calls": calls["power"],
            "power.s": total["power"],
            "sim.grid_calls": calls["sim.grid"],
            "sim.point_calls": calls["sim.point"],
            "sim.s": sim_s,
            "sim.runs": count["sim.runs"],
            "sim.lane_cycles": lane_cycles,
            "sim.drain_share": count["sim.drain_cycles"] / lane_cycles if lane_cycles else 0.0,
            "sim.ns_per_lane_cycle": sim_s * 1e9 / lane_cycles if lane_cycles else 0.0,
            "sim.deadlocked_runs": count["sim.deadlocked_runs"],
            "recovery.s": total["recovery"],
            "recovery.batches": calls["recovery"],
            "recovery.removal_calls": calls["recovery.removal"],
            "recovery.removal_s": total["recovery.removal"],
            "recovery.flows_rerouted": count["recovery.flows_rerouted"],
            "recovery.never_drained": count["recovery.never_drained"],
            "cache.get_s": total["cache.get"],
            "cache.put_s": total["cache.put"],
        }
        for field in ("hits", "misses", "bytes"):
            for kind in CACHE_KINDS:
                metrics[f"cache.{field}.{kind}"] = count[f"cache.{field}.{kind}"]
        metrics["serialization.calls"] = calls["serialization"]
        metrics["serialization.s"] = total["serialization"]
        metrics["trace.attributed_share"] = root_time / wall_s if wall_s > 0 else 0.0
        return metrics
