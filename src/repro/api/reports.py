"""Figure/table formatters driven by :class:`RunResult` records.

Each report type knows two things: which :class:`~repro.api.spec.RunSpec`
points it needs (:meth:`ReportType.specs`) and how to fold the resulting
records into the exact dictionary the paper's figure helpers historically
returned (:meth:`ReportType.render`).  ``noc-deadlock figures`` is a thin
adapter over :func:`run_report`, so it and ``noc-deadlock run <plan.json>``
are byte-identical by construction.

Report types are registered in :data:`report_types`, so downstream code can
add custom figures the same way it adds removal engines::

    @report_types.register("my_table")
    class MyTable(ReportType):
        ...
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.analysis.experiments import VARIANTS
from repro.analysis.metrics import arithmetic_mean, load_point_failed
from repro.api.registry import Registry
from repro.api.result import RunResult
from repro.api.spec import (
    PASS_THROUGH_FIELDS,
    SPEC_FIELDS,
    ExperimentPlan,
    ReportRequest,
    RunSpec,
)
from repro.errors import PlanError

#: Switch counts of Figure 8 (D26_media, x-axis 5..25).
FIGURE8_SWITCH_COUNTS: List[int] = [5, 8, 11, 14, 17, 20, 23, 25]

#: Switch counts of Figure 9 (D36_8, x-axis 10..35).
FIGURE9_SWITCH_COUNTS: List[int] = [10, 14, 18, 22, 26, 30, 35]

#: Benchmarks of Figure 10, in the paper's plotting order.
FIGURE10_BENCHMARKS: List[str] = [
    "D26_media",
    "D36_4",
    "D36_6",
    "D36_8",
    "D35_bott",
    "D38_tvopd",
]

#: Switch count used for Figure 10 and the area/overhead claims
#: ("the values reported in the plot are for topologies with 14 switches").
FIGURE10_SWITCH_COUNT = 14

#: Registry of report formatters (this module registers the built-ins at
#: import time, so no lazy provider is needed).
report_types = Registry("report type")


#: Injection scales of the default load–latency sweep.
LATENCY_INJECTION_SCALES: List[float] = [0.25, 0.5, 0.75, 1.0, 1.5, 2.0]


def _percentile(values: Sequence[float], pct: float) -> Optional[float]:
    """Nearest-rank percentile (the availability report's estimator).

    Deterministic and exact for the small per-policy sample sizes the
    report works with; returns ``None`` on an empty sample.
    """
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _sentinel_free(entry: Dict[str, Any]) -> Dict[str, Any]:
    """Recompute the recovery aggregates of a record's ``resilience`` section.

    ``recovery_cycles`` keeps ``-1`` as its "never drained" wire sentinel
    for cache compatibility; the formatters must never average it into a
    latency number.  Recomputing from the raw list (rather than trusting
    ``mean_recovery_cycles``) also upgrades records cached before the
    ``batches_never_drained`` count existed.
    """
    cycles = entry.get("recovery_cycles")
    if cycles is not None:
        drained = [c for c in cycles if c >= 0]
        entry["mean_recovery_cycles"] = (
            sum(drained) / len(drained) if drained else 0.0
        )
        entry["batches_never_drained"] = sum(1 for c in cycles if c < 0)
    return entry


class ReportType:
    """Base class for report formatters (subclass and register instances).

    A request's parameters are the report type's own :attr:`params` plus
    any :class:`RunSpec` field; the fields outside the grid axes pass
    through to every spec the report builds (:meth:`_spec_params`).
    """

    #: Parameters this report type reads itself.
    params: Tuple[str, ...] = ()

    def specs(self, params: Mapping[str, Any]) -> List[RunSpec]:
        """The evaluation points this report needs."""
        raise NotImplementedError

    def render(
        self, params: Mapping[str, Any], lookup: Mapping[str, RunResult]
    ) -> Dict[str, Any]:
        """Fold the records (keyed by spec fingerprint) into the figure dict."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _spec_params(self, params: Mapping[str, Any]) -> Dict[str, Any]:
        """The RunSpec fields a request passes through (engine etc.).

        Raises :class:`~repro.errors.PlanError` naming every key that is
        neither a RunSpec field nor one of :attr:`params`, so a misspelt
        parameter fails instead of silently taking its default.
        """
        unknown = sorted(set(params) - set(SPEC_FIELDS) - set(self.params))
        if unknown:
            raise PlanError(
                f"unknown report parameter(s): {', '.join(unknown)}; a report "
                f"takes {', '.join(self.params)} or any run spec field"
            )
        return {key: params[key] for key in PASS_THROUGH_FIELDS if key in params}

    def _results(
        self, params: Mapping[str, Any], lookup: Mapping[str, RunResult]
    ) -> List[RunResult]:
        return [lookup[spec.fingerprint()] for spec in self.specs(params)]


class _SwitchCountSweepReport(ReportType):
    """Figures 8 and 9: extra VCs vs. switch count for one benchmark."""

    params = ("switch_counts", "seed")

    def __init__(self, benchmark: str, default_counts: Sequence[int]):
        self.benchmark = benchmark
        self.default_counts = list(default_counts)

    def _counts(self, params: Mapping[str, Any]) -> List[int]:
        return list(params.get("switch_counts", self.default_counts))

    def specs(self, params: Mapping[str, Any]) -> List[RunSpec]:
        seed = params.get("seed", 0)
        extra = self._spec_params(params)
        return [
            RunSpec(benchmark=self.benchmark, switch_count=count, seed=seed, **extra)
            for count in self._counts(params)
        ]

    def render(self, params, lookup) -> Dict[str, Any]:
        results = self._results(params, lookup)
        return {
            "benchmark": self.benchmark,
            "switch_counts": self._counts(params),
            "resource_ordering_vcs": [r.ordering_extra_vcs for r in results],
            "deadlock_removal_vcs": [r.removal_extra_vcs for r in results],
        }


class _BenchmarkSetReport(ReportType):
    """Base for the per-benchmark reports (Figure 10, area, overhead)."""

    params = ("benchmarks", "switch_count", "seed")

    def _names(self, params: Mapping[str, Any]) -> List[str]:
        return list(params.get("benchmarks", FIGURE10_BENCHMARKS))

    def _switch_count(self, params: Mapping[str, Any]) -> int:
        return params.get("switch_count", FIGURE10_SWITCH_COUNT)

    def specs(self, params: Mapping[str, Any]) -> List[RunSpec]:
        seed = params.get("seed", 0)
        switch_count = self._switch_count(params)
        extra = self._spec_params(params)
        return [
            RunSpec(benchmark=name, switch_count=switch_count, seed=seed, **extra)
            for name in self._names(params)
        ]


class _Figure10PowerReport(_BenchmarkSetReport):
    """Figure 10: power of resource ordering normalised to deadlock removal."""

    def render(self, params, lookup) -> Dict[str, Any]:
        results = self._results(params, lookup)
        savings = [r.power_saving_percent for r in results]
        return {
            "benchmarks": self._names(params),
            "switch_count": self._switch_count(params),
            "deadlock_removal_normalised_power": [1.0 for _ in results],
            "resource_ordering_normalised_power": [
                r.normalised_ordering_power for r in results
            ],
            "power_saving_percent": savings,
            "average_power_saving_percent": arithmetic_mean(savings),
        }


class _AreaSavingsReport(_BenchmarkSetReport):
    """The §5 area claim: VC and area reduction of removal vs. ordering."""

    def render(self, params, lookup) -> Dict[str, Any]:
        results = self._results(params, lookup)
        vc_reduction = [r.vc_reduction_percent for r in results]
        area_saving = [r.area_saving_percent for r in results]
        return {
            "benchmarks": self._names(params),
            "switch_count": self._switch_count(params),
            "removal_extra_vcs": [r.removal_extra_vcs for r in results],
            "ordering_extra_vcs": [r.ordering_extra_vcs for r in results],
            "vc_reduction_percent": vc_reduction,
            "area_saving_percent": area_saving,
            "average_vc_reduction_percent": arithmetic_mean(vc_reduction),
            "average_area_saving_percent": arithmetic_mean(area_saving),
        }


class _OverheadReport(_BenchmarkSetReport):
    """The §5 overhead claim: removal vs. designs with no deadlock handling."""

    def render(self, params, lookup) -> Dict[str, Any]:
        results = self._results(params, lookup)
        power_overhead = [r.removal_power_overhead_percent for r in results]
        area_overhead = [r.removal_area_overhead_percent for r in results]
        return {
            "benchmarks": self._names(params),
            "switch_count": self._switch_count(params),
            "power_overhead_percent": power_overhead,
            "area_overhead_percent": area_overhead,
            "average_power_overhead_percent": arithmetic_mean(power_overhead),
            "average_area_overhead_percent": arithmetic_mean(area_overhead),
        }


class _LatencyReport(ReportType):
    """Load–latency curves of one benchmark point, per design variant.

    One :class:`RunSpec` per injection scale, so every load point is an
    independently cached, independently parallelisable artifact; the render
    folds the per-spec simulation records into latency/throughput curves
    for the unprotected, deadlock-removal and resource-ordering variants,
    plus each variant's saturation scale (first deadlocked or
    saturated point — deliveries below 80 % of offers).

    Parameters: ``benchmark`` (default ``"D36_8"``), ``switch_count``
    (default 14, the Figure 10 setting), ``injection_scales``, ``seed`` and
    any simulation field (``sim_engine``, ``traffic_scenario``,
    ``sim_cycles``, ``buffer_depth``).
    """

    params = ("benchmark", "switch_count", "injection_scales", "seed")

    def _benchmark(self, params: Mapping[str, Any]) -> str:
        return params.get("benchmark", "D36_8")

    def _switch_count(self, params: Mapping[str, Any]) -> int:
        return params.get("switch_count", FIGURE10_SWITCH_COUNT)

    def _scales(self, params: Mapping[str, Any]) -> List[float]:
        return list(params.get("injection_scales", LATENCY_INJECTION_SCALES))

    def specs(self, params: Mapping[str, Any]) -> List[RunSpec]:
        seed = params.get("seed", 0)
        extra = self._spec_params(params)
        return [
            RunSpec(
                benchmark=self._benchmark(params),
                switch_count=self._switch_count(params),
                seed=seed,
                injection_scale=scale,
                **extra,
            )
            for scale in self._scales(params)
        ]

    def render(self, params, lookup) -> Dict[str, Any]:
        results = self._results(params, lookup)
        scales = self._scales(params)
        curves: Dict[str, Any] = {}
        for variant in VARIANTS:
            metrics = [r.simulation["variants"][variant] for r in results]
            saturation = next(
                (m["injection_scale"] for m in metrics if load_point_failed(m)), None
            )
            curves[variant] = {
                "offered_flits_per_cycle": [m["offered_flits_per_cycle"] for m in metrics],
                "delivered_flits_per_cycle": [
                    m["delivered_flits_per_cycle"] for m in metrics
                ],
                "average_latency": [m["average_latency"] for m in metrics],
                "max_latency": [m["max_latency"] for m in metrics],
                "packets_delivered": [m["packets_delivered"] for m in metrics],
                "deadlocked": [m["deadlocked"] for m in metrics],
                "saturation_scale": saturation,
            }
        first = results[0].simulation if results else {}
        return {
            "benchmark": self._benchmark(params),
            "switch_count": self._switch_count(params),
            "injection_scales": scales,
            "traffic_scenario": first.get("traffic_scenario", "flows"),
            "sim_engine": first.get("engine", "compiled"),
            "variants": curves,
        }


#: Default recovery policies of the ``availability`` report, compared in
#: registry order.
DEFAULT_AVAILABILITY_POLICIES: List[str] = ["removal", "reroute", "idle", "protection"]

#: Default fault seeds of the ``availability`` report (a ten-draw grid, the
#: smallest sample the percentile columns are meaningful over).
DEFAULT_AVAILABILITY_SEEDS: List[int] = list(range(10))


class _AvailabilityReport(ReportType):
    """Multi-seed availability of one benchmark point under one fault model.

    One simulating :class:`RunSpec` per (recovery policy × fault seed),
    every point an independently cached artifact.  The spec's own ``seed``
    stays fixed across the grid — only ``fault_params["seed"]`` varies —
    so all points share one cost bundle (one synthesized design, one
    removal run) and identical traffic, isolating the fault draw as the
    only source of variance.  The render folds one chosen design variant
    (default ``"removal"``, the paper's protected design) into per-policy
    availability columns: delivered fraction, nearest-rank p50/p95/p99
    recovery latency over the pooled drained batches, the flit-loss
    distribution, never-drained batch counts and the fraction of seeds
    that stayed post-fault deadlock-free.

    Parameters: ``benchmark`` (default ``"D36_8"``), ``switch_count``
    (default 14), ``injection_scale`` (default 1.0), ``fault_model``
    (default ``"uniform"``), ``fault_params``, ``recovery_policies``
    (default :data:`DEFAULT_AVAILABILITY_POLICIES`), ``seeds`` (fault
    seeds, default :data:`DEFAULT_AVAILABILITY_SEEDS`), ``variant``,
    ``seed`` (the fixed design/traffic seed) and any simulation field
    (``sim_engine``, ``traffic_scenario``, ``sim_cycles``,
    ``buffer_depth``).
    """

    params = (
        "benchmark",
        "switch_count",
        "injection_scale",
        "fault_model",
        "fault_params",
        "recovery_policies",
        "seeds",
        "variant",
        "seed",
    )

    def _benchmark(self, params: Mapping[str, Any]) -> str:
        return params.get("benchmark", "D36_8")

    def _switch_count(self, params: Mapping[str, Any]) -> int:
        return params.get("switch_count", FIGURE10_SWITCH_COUNT)

    def _fault_model(self, params: Mapping[str, Any]) -> str:
        return params.get("fault_model", "uniform")

    def _policies(self, params: Mapping[str, Any]) -> List[str]:
        return list(params.get("recovery_policies", DEFAULT_AVAILABILITY_POLICIES))

    def _seeds(self, params: Mapping[str, Any]) -> List[int]:
        return list(params.get("seeds", DEFAULT_AVAILABILITY_SEEDS))

    def _variant(self, params: Mapping[str, Any]) -> str:
        return params.get("variant", "removal")

    def specs(self, params: Mapping[str, Any]) -> List[RunSpec]:
        extra = self._spec_params(params)
        # The report's own axes, never a pass-through.
        extra.pop("fault_model", None)
        extra.pop("fault_params", None)
        extra.pop("fault_recovery", None)
        fault_params = dict(params.get("fault_params", {}))
        return [
            RunSpec(
                benchmark=self._benchmark(params),
                switch_count=self._switch_count(params),
                seed=params.get("seed", 0),
                injection_scale=params.get("injection_scale", 1.0),
                fault_model=self._fault_model(params),
                fault_params={**fault_params, "seed": fault_seed},
                fault_recovery=policy,
                **extra,
            )
            for policy in self._policies(params)
            for fault_seed in self._seeds(params)
        ]

    def render(self, params, lookup) -> Dict[str, Any]:
        policies = self._policies(params)
        seeds = self._seeds(params)
        variant = self._variant(params)
        results = self._results(params, lookup)
        per_policy: Dict[str, Any] = {}
        for index, policy in enumerate(policies):
            rows = results[index * len(seeds) : (index + 1) * len(seeds)]
            delivered: List[float] = []
            flits_lost: List[int] = []
            pooled_recovery: List[int] = []
            never_drained = 0
            deadlock_free_seeds = 0
            for row in rows:
                metrics = (row.simulation or {}).get("variants", {}).get(variant, {})
                injected = metrics.get("packets_injected") or 0
                delivered.append(
                    metrics.get("packets_delivered", 0) / injected if injected else 0.0
                )
                resilience = _sentinel_free(dict(metrics.get("resilience", {})))
                flits_lost.append(resilience.get("flits_lost", 0))
                cycles = resilience.get("recovery_cycles", [])
                pooled_recovery.extend(c for c in cycles if c >= 0)
                never_drained += resilience.get("batches_never_drained", 0)
                if resilience.get("post_fault_deadlock_free") is not False:
                    deadlock_free_seeds += 1
            per_policy[policy] = {
                "delivered_fraction": delivered,
                "mean_delivered_fraction": arithmetic_mean(delivered) if delivered else 0.0,
                "recovery_cycles_p50": _percentile(pooled_recovery, 50),
                "recovery_cycles_p95": _percentile(pooled_recovery, 95),
                "recovery_cycles_p99": _percentile(pooled_recovery, 99),
                "recovery_samples": len(pooled_recovery),
                "batches_never_drained": never_drained,
                "flits_lost": flits_lost,
                "mean_flits_lost": arithmetic_mean(flits_lost) if flits_lost else 0.0,
                "deadlock_free_fraction": (
                    deadlock_free_seeds / len(rows) if rows else 0.0
                ),
            }
        first = results[0].simulation if results else {}
        return {
            "benchmark": self._benchmark(params),
            "switch_count": self._switch_count(params),
            "injection_scale": params.get("injection_scale", 1.0),
            "fault_model": self._fault_model(params),
            "fault_params": dict(params.get("fault_params", {})),
            "seeds": seeds,
            "variant": variant,
            "sim_engine": first.get("engine", "compiled") if first else "compiled",
            "policies": per_policy,
        }


#: Default size sweeps of the ``scale`` report, per topology family.
DEFAULT_SCALE_POINTS: Dict[str, List[Dict[str, int]]] = {
    "ring": [{"n_switches": 4}, {"n_switches": 8}, {"n_switches": 16}],
    "mesh": [
        {"rows": 3, "cols": 3},
        {"rows": 4, "cols": 4},
        {"rows": 5, "cols": 5},
    ],
    "torus": [
        {"rows": 3, "cols": 3},
        {"rows": 4, "cols": 4},
        {"rows": 5, "cols": 5},
    ],
    "fat_tree": [{"k": 2}, {"k": 4}, {"k": 6}],
    "clos": [
        {"spines": 2, "leaves": 4},
        {"spines": 4, "leaves": 8},
        {"spines": 6, "leaves": 12},
    ],
    "vl2": [
        {"spines": 2, "leaves": 4},
        {"spines": 4, "leaves": 8},
        {"spines": 6, "leaves": 12},
    ],
    "dragonfly": [
        {"groups": 2, "routers": 2},
        {"groups": 3, "routers": 3},
        {"groups": 4, "routers": 4},
    ],
}


class _ScaleReport(ReportType):
    """Scaling curves of one topology family across sizes.

    One simulating :class:`RunSpec` per size point: each point synthesizes
    the family instance (``topology_family`` + that point's
    ``family_params``), runs the removal/ordering comparison and simulates
    all three variants at one load level, so the render can plot
    removal-time, extra-VC, latency and saturation curves against network
    size — the datacenter-scale question of whether the paper's algorithm
    keeps up as the fabric grows.

    Parameters: ``family`` (required), ``points`` (list of family-parameter
    dictionaries; default :data:`DEFAULT_SCALE_POINTS` for the family),
    ``benchmark`` (one registry name used at every size; default a
    parametric ``uniform_c{2·size}_f2`` synthetic per point, which scales
    the workload with the fabric), ``injection_scale`` (default 0.75),
    ``seed`` and any simulation field (``sim_engine``,
    ``traffic_scenario``, ``scenario_params``, ``sim_cycles``,
    ``buffer_depth``).
    """

    params = ("family", "points", "benchmark", "injection_scale", "seed")

    def _family(self, params: Mapping[str, Any]) -> str:
        family = params.get("family")
        if not isinstance(family, str) or not family:
            raise PlanError(
                "the scale report needs a 'family' parameter naming a "
                "topology family (e.g. 'fat_tree')"
            )
        return family

    def _points(self, params: Mapping[str, Any]) -> List[Dict[str, Any]]:
        family = self._family(params)
        points = params.get("points")
        if points is None:
            points = DEFAULT_SCALE_POINTS.get(family)
            if points is None:
                raise PlanError(
                    f"no default size sweep for topology family {family!r}; "
                    "pass explicit 'points'"
                )
        if not isinstance(points, (list, tuple)) or not points:
            raise PlanError("scale report 'points' must be a non-empty list")
        return [dict(point) for point in points]

    def _sizes(self, params: Mapping[str, Any]) -> List[int]:
        from repro.synthesis.families import family_size  # local: lazy import

        family = self._family(params)
        return [family_size(family, point) for point in self._points(params)]

    def _benchmarks(self, params: Mapping[str, Any]) -> List[str]:
        benchmark = params.get("benchmark")
        if benchmark is not None:
            return [benchmark for _ in self._points(params)]
        # Parametric synthetic workload growing with the fabric: two cores
        # per switch, two flows per core.
        return [f"uniform_c{2 * size}_f2" for size in self._sizes(params)]

    def specs(self, params: Mapping[str, Any]) -> List[RunSpec]:
        family = self._family(params)
        points = self._points(params)
        sizes = self._sizes(params)
        benchmarks = self._benchmarks(params)
        extra = self._spec_params(params)
        # The family axis is the report's own sweep, never a pass-through.
        extra.pop("topology_family", None)
        extra.pop("family_params", None)
        return [
            RunSpec(
                benchmark=benchmark,
                switch_count=size,
                seed=params.get("seed", 0),
                injection_scale=params.get("injection_scale", 0.75),
                topology_family=family,
                family_params=point,
                **extra,
            )
            for benchmark, size, point in zip(benchmarks, sizes, points)
        ]

    def render(self, params, lookup) -> Dict[str, Any]:
        results = self._results(params, lookup)
        curves: Dict[str, Any] = {}
        for variant in VARIANTS:
            metrics = [r.simulation["variants"][variant] for r in results]
            curves[variant] = {
                "offered_flits_per_cycle": [m["offered_flits_per_cycle"] for m in metrics],
                "delivered_flits_per_cycle": [
                    m["delivered_flits_per_cycle"] for m in metrics
                ],
                "average_latency": [m["average_latency"] for m in metrics],
                "deadlocked": [m["deadlocked"] for m in metrics],
                "saturated": [load_point_failed(m) for m in metrics],
            }
        first = results[0].simulation if results else {}
        return {
            "family": self._family(params),
            "points": self._points(params),
            "sizes": self._sizes(params),
            "benchmarks": self._benchmarks(params),
            "injection_scale": params.get("injection_scale", 0.75),
            "traffic_scenario": first.get("traffic_scenario", "flows"),
            "sim_engine": first.get("engine", "compiled"),
            "removal_extra_vcs": [r.removal_extra_vcs for r in results],
            "ordering_extra_vcs": [r.ordering_extra_vcs for r in results],
            "removal_runtime_s": [r.removal_runtime_s for r in results],
            "variants": curves,
        }


report_types.register("latency", _LatencyReport())
report_types.register("scale", _ScaleReport())
report_types.register("availability", _AvailabilityReport())
report_types.register("figure8", _SwitchCountSweepReport("D26_media", FIGURE8_SWITCH_COUNTS))
report_types.register("figure9", _SwitchCountSweepReport("D36_8", FIGURE9_SWITCH_COUNTS))
report_types.register("figure10", _Figure10PowerReport())
report_types.register("area", _AreaSavingsReport())
report_types.register("overhead", _OverheadReport())


def run_report(
    name: str,
    params: Optional[Mapping[str, Any]] = None,
    *,
    jobs: Optional[int] = None,
    cache_dir=None,
) -> Dict[str, Any]:
    """Execute one report end-to-end and return its rendered dictionary."""
    from repro.api.runner import Runner  # local: avoid import cycle

    request = ReportRequest(type=name, params=dict(params or {}))
    plan = ExperimentPlan(name=f"report-{name}", reports=[request])
    outcome = Runner(cache_dir=cache_dir, jobs=jobs).run(plan)
    return outcome.render_reports()[0][1]
