"""Figure/table formatters driven by :class:`RunResult` records.

Each report type knows two things: which :class:`~repro.api.spec.RunSpec`
points it needs (:meth:`ReportType.specs`) and how to fold the resulting
records into the exact dictionary the paper's figure helpers historically
returned (:meth:`ReportType.render`).  ``noc-deadlock figures`` is a thin
adapter over :func:`run_report`, so it and ``noc-deadlock run <plan.json>``
are byte-identical by construction.

A report type declares its parameters once, the way topology families do
(:mod:`repro.domains`): each is an annotated class attribute whose value
is its default (a parameter without one is required), with the bounds of
the values the report reads itself in the class's ``domains``; every
report takes ``seed``.  Any other key of a request names a
:class:`RunSpec` field, which passes through to every spec the report
builds; a field the report sets itself (a grid axis it does not take, or
one of :attr:`ReportType.sets`) is a :class:`~repro.errors.PlanError`
naming the parameter to use.  Custom reports register in
:data:`report_types`, as topology families do::

    class MyTable(ReportType):
        benchmarks: List[str] = ["D26_media", "D36_8"]
        domains = Domains("report 'my_table'")
        sets = {"benchmark": "benchmarks"}

        def _specs(self, params, fields):
            return [RunSpec(benchmark=name, switch_count=14, seed=params["seed"], **fields)
                    for name in params["benchmarks"]]

        def _render(self, params, results):
            return {"removal_extra_vcs": [r.removal_extra_vcs for r in results]}

    report_types.register("my_table", MyTable())
"""

from __future__ import annotations

import copy
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
from repro.domains import Domains
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


class ReportType:
    """Base class for report formatters (subclass and register instances).

    A subclass declares its parameters (see the module docstring) and
    implements :meth:`_specs` and :meth:`_render`; :meth:`specs` and
    :meth:`render` resolve a request with :meth:`_resolve` first.
    """

    #: The seed of every spec the report builds.
    seed: int = 0
    domains = Domains("report", PlanError)
    #: Run spec fields the report sets itself besides the grid axes, or
    #: from a parameter of another name: each mapped to that parameter
    #: (not annotated, so not a parameter).
    sets = {}

    def __init__(self):
        #: The run spec fields a request passes through to every spec: the
        #: non-axis fields that are neither parameters nor set by the report.
        self.pass_through = set(PASS_THROUGH_FIELDS) - self.domains.knobs.keys() - self.sets.keys()

    def specs(self, params: Mapping[str, Any]) -> List[RunSpec]:
        """The evaluation points this report needs."""
        return self._specs(*self._resolve(params))

    def render(
        self, params: Mapping[str, Any], lookup: Mapping[str, RunResult]
    ) -> Dict[str, Any]:
        """Fold the records (keyed by spec fingerprint) into the figure dict."""
        values, fields = self._resolve(params)
        results = [lookup[spec.fingerprint()] for spec in self._specs(values, fields)]
        return self._render(values, results)

    # ------------------------------------------------------------------
    def _resolve(self, params: Mapping[str, Any]) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """A request's parameters, defaults filled in, and the run spec
        fields it passes through; :class:`~repro.errors.PlanError` names
        any other key."""
        knobs, label = self.domains.knobs, self.domains.label
        unknown = sorted(params.keys() - knobs.keys() - set(SPEC_FIELDS))
        if unknown:
            raise PlanError(
                f"{label}: unknown parameter(s) {', '.join(unknown)}; valid: "
                f"{', '.join(knobs)} or a run spec field"
            )
        owned = sorted(params.keys() - knobs.keys() - self.pass_through)
        if owned:
            use = f"; use {self.sets[owned[0]]!r}" if owned[0] in self.sets else ""
            raise PlanError(f"{label}: run spec field {owned[0]!r} is set by the report{use}")
        given = copy.deepcopy({key: params[key] for key in params.keys() & knobs.keys()})
        fields = {key: params[key] for key in params.keys() & self.pass_through}
        return self.domains.normalize(given), fields

    def _specs(self, params: Dict[str, Any], fields: Dict[str, Any]) -> List[RunSpec]:
        """The specs of resolved ``params``, each with the pass-through ``fields``."""
        raise NotImplementedError

    def _render(self, params: Dict[str, Any], results: List[RunResult]) -> Dict[str, Any]:
        """The rendered document of resolved ``params`` and the specs' records."""
        raise NotImplementedError


class _SwitchCountSweepReport(ReportType):
    """Figures 8 and 9: extra VCs vs. switch count for one benchmark."""

    #: The figure's benchmark (not a parameter).
    benchmark = ""
    switch_counts: List[int]
    sets = {"switch_count": "switch_counts"}

    def _specs(self, params, fields) -> List[RunSpec]:
        return [
            RunSpec(benchmark=self.benchmark, switch_count=count, seed=params["seed"], **fields)
            for count in params["switch_counts"]
        ]

    def _render(self, params, results) -> Dict[str, Any]:
        return {
            "benchmark": self.benchmark,
            "switch_counts": params["switch_counts"],
            "resource_ordering_vcs": [r.ordering_extra_vcs for r in results],
            "deadlock_removal_vcs": [r.removal_extra_vcs for r in results],
        }


class _Figure8Report(_SwitchCountSweepReport):
    benchmark = "D26_media"
    switch_counts = FIGURE8_SWITCH_COUNTS
    domains = Domains("report 'figure8'")


class _Figure9Report(_SwitchCountSweepReport):
    benchmark = "D36_8"
    switch_counts = FIGURE9_SWITCH_COUNTS
    domains = Domains("report 'figure9'")


class _BenchmarkSetReport(ReportType):
    """Base for the per-benchmark reports (Figure 10, area, overhead)."""

    benchmarks: List[str] = FIGURE10_BENCHMARKS
    switch_count: int = FIGURE10_SWITCH_COUNT
    sets = {"benchmark": "benchmarks"}

    def _specs(self, params, fields) -> List[RunSpec]:
        return [
            RunSpec(benchmark=name, switch_count=params["switch_count"], seed=params["seed"],
                    **fields)
            for name in params["benchmarks"]
        ]


class _Figure10PowerReport(_BenchmarkSetReport):
    """Figure 10: power of resource ordering normalised to deadlock removal."""

    domains = Domains("report 'figure10'")

    def _render(self, params, results) -> Dict[str, Any]:
        savings = [r.power_saving_percent for r in results]
        return {
            "benchmarks": params["benchmarks"],
            "switch_count": params["switch_count"],
            "deadlock_removal_normalised_power": [1.0 for _ in results],
            "resource_ordering_normalised_power": [
                r.normalised_ordering_power for r in results
            ],
            "power_saving_percent": savings,
            "average_power_saving_percent": arithmetic_mean(savings),
        }


class _AreaSavingsReport(_BenchmarkSetReport):
    """The §5 area claim: VC and area reduction of removal vs. ordering."""

    domains = Domains("report 'area'")

    def _render(self, params, results) -> Dict[str, Any]:
        vc_reduction = [r.vc_reduction_percent for r in results]
        area_saving = [r.area_saving_percent for r in results]
        return {
            "benchmarks": params["benchmarks"],
            "switch_count": params["switch_count"],
            "removal_extra_vcs": [r.removal_extra_vcs for r in results],
            "ordering_extra_vcs": [r.ordering_extra_vcs for r in results],
            "vc_reduction_percent": vc_reduction,
            "area_saving_percent": area_saving,
            "average_vc_reduction_percent": arithmetic_mean(vc_reduction),
            "average_area_saving_percent": arithmetic_mean(area_saving),
        }


class _OverheadReport(_BenchmarkSetReport):
    """The §5 overhead claim: removal vs. designs with no deadlock handling."""

    domains = Domains("report 'overhead'")

    def _render(self, params, results) -> Dict[str, Any]:
        power_overhead = [r.removal_power_overhead_percent for r in results]
        area_overhead = [r.removal_area_overhead_percent for r in results]
        return {
            "benchmarks": params["benchmarks"],
            "switch_count": params["switch_count"],
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
    saturated point — deliveries below 80 % of offers).  The simulation
    fields (``sim_engine``, ``traffic_scenario``, ``sim_cycles``,
    ``buffer_depth``) pass through.
    """

    benchmark: str = "D36_8"
    #: The Figure 10 setting.
    switch_count: int = FIGURE10_SWITCH_COUNT
    injection_scales: List[float] = LATENCY_INJECTION_SCALES
    domains = Domains("report 'latency'")
    sets = {"injection_scale": "injection_scales"}

    def _specs(self, params, fields) -> List[RunSpec]:
        return [
            RunSpec(
                benchmark=params["benchmark"],
                switch_count=params["switch_count"],
                seed=params["seed"],
                injection_scale=scale,
                **fields,
            )
            for scale in params["injection_scales"]
        ]

    def _render(self, params, results) -> Dict[str, Any]:
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
            "benchmark": params["benchmark"],
            "switch_count": params["switch_count"],
            "injection_scales": params["injection_scales"],
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

#: The resilience section of a load point whose schedule drew no fault
#: (the simulation writes none).
_NO_FAULT = {"flits_lost": 0, "recovery_cycles": [], "post_fault_deadlock_free": None}


class _AvailabilityReport(ReportType):
    """Multi-seed availability of one benchmark point under one fault model.

    One simulating :class:`RunSpec` per (recovery policy × fault seed),
    every point an independently cached artifact.  The spec's own ``seed``
    stays fixed across the grid — only ``fault_params["seed"]`` varies —
    so all points share one cost bundle (one synthesized design, one
    removal run) and identical traffic, isolating the fault draw as the
    only source of variance.  The render folds one chosen design
    ``variant`` (the paper's protected design by default) into per-policy
    availability columns: delivered fraction, nearest-rank p50/p95/p99
    recovery latency over the pooled drained batches, the flit-loss
    distribution, never-drained batch counts and the fraction of seeds
    that stayed post-fault deadlock-free.  ``seeds`` are the fault seeds,
    ``seed`` the fixed design and traffic seed, and the simulation fields
    (``sim_engine``, ``traffic_scenario``, ``sim_cycles``,
    ``buffer_depth``) pass through.
    """

    benchmark: str = "D36_8"
    switch_count: int = FIGURE10_SWITCH_COUNT
    injection_scale: float = 1.0
    fault_model: str = "uniform"
    fault_params: Dict[str, Any] = {}
    recovery_policies: List[str] = DEFAULT_AVAILABILITY_POLICIES
    seeds: List[int] = DEFAULT_AVAILABILITY_SEEDS
    variant: str = "removal"
    domains = Domains("report 'availability'", variant=VARIANTS)
    sets = {"fault_recovery": "recovery_policies"}

    def _specs(self, params, fields) -> List[RunSpec]:
        return [
            RunSpec(
                benchmark=params["benchmark"],
                switch_count=params["switch_count"],
                seed=params["seed"],
                injection_scale=params["injection_scale"],
                fault_model=params["fault_model"],
                fault_params={**params["fault_params"], "seed": fault_seed},
                fault_recovery=policy,
                **fields,
            )
            for policy in params["recovery_policies"]
            for fault_seed in params["seeds"]
        ]

    def _render(self, params, results) -> Dict[str, Any]:
        seeds = params["seeds"]
        per_policy: Dict[str, Any] = {}
        for index, policy in enumerate(params["recovery_policies"]):
            rows = results[index * len(seeds) : (index + 1) * len(seeds)]
            delivered: List[float] = []
            flits_lost: List[int] = []
            pooled_recovery: List[int] = []
            never_drained = 0
            deadlock_free_seeds = 0
            for row in rows:
                metrics = row.simulation["variants"][params["variant"]]
                injected = metrics["packets_injected"]
                delivered.append(metrics["packets_delivered"] / injected if injected else 0.0)
                resilience = metrics.get("resilience", _NO_FAULT)
                flits_lost.append(resilience["flits_lost"])
                # -1 is the wire sentinel of a batch that never drained:
                # counted, never averaged into a latency.
                cycles = resilience["recovery_cycles"]
                pooled_recovery.extend(c for c in cycles if c >= 0)
                never_drained += sum(1 for c in cycles if c < 0)
                if resilience["post_fault_deadlock_free"] is not False:
                    deadlock_free_seeds += 1
            per_policy[policy] = {
                "delivered_fraction": delivered,
                "mean_delivered_fraction": arithmetic_mean(delivered),
                "recovery_cycles_p50": _percentile(pooled_recovery, 50),
                "recovery_cycles_p95": _percentile(pooled_recovery, 95),
                "recovery_cycles_p99": _percentile(pooled_recovery, 99),
                "recovery_samples": len(pooled_recovery),
                "batches_never_drained": never_drained,
                "flits_lost": flits_lost,
                "mean_flits_lost": arithmetic_mean(flits_lost),
                "deadlock_free_fraction": (
                    deadlock_free_seeds / len(rows) if rows else 0.0
                ),
            }
        first = results[0].simulation if results else {}
        return {
            "benchmark": params["benchmark"],
            "switch_count": params["switch_count"],
            "injection_scale": params["injection_scale"],
            "fault_model": params["fault_model"],
            "fault_params": params["fault_params"],
            "seeds": seeds,
            "variant": params["variant"],
            "sim_engine": first.get("engine", "compiled"),
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

    ``points`` lists family-parameter dictionaries (by default the
    family's :data:`DEFAULT_SCALE_POINTS`); ``benchmark`` names one
    registry benchmark used at every size (by default a parametric
    ``uniform_c{2·size}_f2`` synthetic per point, which scales the workload
    with the fabric); the simulation fields (``sim_engine``,
    ``traffic_scenario``, ``scenario_params``, ``sim_cycles``,
    ``buffer_depth``) pass through.
    """

    family: str
    points: Optional[List[Dict[str, Any]]] = None
    benchmark: Optional[str] = None
    injection_scale: float = 0.75
    domains = Domains("report 'scale'")
    sets = {"switch_count": "points", "topology_family": "family", "family_params": "points"}

    def _resolve(self, params):
        """Also fill in the family's default ``points`` and each point's size and benchmark."""
        from repro.synthesis.families import family_size  # local: lazy import

        values, fields = super()._resolve(params)
        family, points = values["family"], values["points"]
        if points is None:
            if family not in DEFAULT_SCALE_POINTS:
                raise PlanError(
                    f"{self.domains.label}: no default size sweep for topology family "
                    f"{family!r}; pass explicit 'points'"
                )
            points = values["points"] = copy.deepcopy(DEFAULT_SCALE_POINTS[family])
        elif not points:
            raise PlanError(f"{self.domains.label}: points must be a non-empty list, got []")
        values["sizes"] = [family_size(family, point) for point in points]
        # Parametric synthetic workload growing with the fabric: two cores
        # per switch, two flows per core.
        values["benchmarks"] = [
            values["benchmark"] or f"uniform_c{2 * size}_f2" for size in values["sizes"]
        ]
        return values, fields

    def _specs(self, params, fields) -> List[RunSpec]:
        return [
            RunSpec(
                benchmark=benchmark,
                switch_count=size,
                seed=params["seed"],
                injection_scale=params["injection_scale"],
                topology_family=params["family"],
                family_params=point,
                **fields,
            )
            for benchmark, size, point in zip(
                params["benchmarks"], params["sizes"], params["points"]
            )
        ]

    def _render(self, params, results) -> Dict[str, Any]:
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
            "family": params["family"],
            "points": params["points"],
            "sizes": params["sizes"],
            "benchmarks": params["benchmarks"],
            "injection_scale": params["injection_scale"],
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
report_types.register("figure8", _Figure8Report())
report_types.register("figure9", _Figure9Report())
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
