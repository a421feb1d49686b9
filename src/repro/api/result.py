"""Uniform run records: one JSON schema shared by tables, figures and the CLI.

A :class:`RunResult` is the scalar outcome of executing one
:class:`~repro.api.spec.RunSpec`: the VC counts, power and area of the
unprotected / deadlock-removal / resource-ordering variants, plus removal
bookkeeping (iterations, runtime, initial cycle count).  Every derived
percentage of the paper's claims is a property computed from those scalars
with exactly the formulas of
:class:`repro.analysis.experiments.MethodComparison`, so figures rendered
from cached results are byte-identical to figures rendered from a fresh
run (JSON round-trips Python floats losslessly).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Mapping, Optional

from repro.analysis.metrics import percent_reduction
from repro.api.spec import RunSpec
from repro.errors import PlanError

#: Version tag of the result schema; cached documents with a different
#: version are treated as cache misses by the runner.
RESULT_FORMAT_VERSION = 1


@dataclass
class RunResult:
    """Scalar outcome of one evaluation point (one :class:`RunSpec`)."""

    spec: RunSpec
    removal_extra_vcs: int
    ordering_extra_vcs: int
    removal_iterations: int
    initial_cycle_count: int
    removal_runtime_s: float
    unprotected_power_mw: float
    removal_power_mw: float
    ordering_power_mw: float
    unprotected_area_mm2: float
    removal_area_mm2: float
    ordering_area_mm2: float
    #: Simulation metrics at the spec's load point, or ``None`` when the
    #: spec requested no simulation (``injection_scale`` unset).  Shape:
    #: ``{"engine", "traffic_scenario", "injection_scale", "sim_cycles",
    #: "buffer_depth", "variants": {variant: {latency/throughput metrics}}}``
    #: with one variants entry per design (``removal``, ``ordering``,
    #: ``unprotected``).
    simulation: Optional[Dict[str, Any]] = None
    #: True when this record was served from the artifact cache (runtime
    #: state, not part of the serialized schema).
    cache_hit: bool = field(default=False, compare=False)
    #: How many executions this record took (> 1 only when a worker died
    #: mid-spec and :func:`repro.perf.executor.parallel_map` retried it).
    #: Excluded from equality so a retried record still matches a clean one.
    attempts: int = field(default=1, compare=False)

    # ------------------------------------------------------------------
    # derived claims — formulas identical to MethodComparison
    # ------------------------------------------------------------------
    @property
    def benchmark(self) -> str:
        return self.spec.benchmark

    @property
    def switch_count(self) -> int:
        return self.spec.switch_count

    @property
    def vc_reduction_percent(self) -> float:
        """How many fewer VCs removal needs than ordering (the 88% claim)."""
        return percent_reduction(self.ordering_extra_vcs, self.removal_extra_vcs)

    @property
    def power_saving_percent(self) -> float:
        """Power saved by removal relative to ordering (the 8.6% claim)."""
        return percent_reduction(self.ordering_power_mw, self.removal_power_mw)

    @property
    def area_saving_percent(self) -> float:
        """Router+link area saved by removal relative to ordering (66% claim)."""
        return percent_reduction(self.ordering_area_mm2, self.removal_area_mm2)

    @property
    def removal_power_overhead_percent(self) -> float:
        """Power overhead of removal vs. the unprotected design (<5% claim)."""
        if self.unprotected_power_mw == 0:
            return 0.0
        return (self.removal_power_mw / self.unprotected_power_mw - 1.0) * 100.0

    @property
    def removal_area_overhead_percent(self) -> float:
        """Area overhead of removal vs. the unprotected design (<5% claim)."""
        if self.unprotected_area_mm2 == 0:
            return 0.0
        return (self.removal_area_mm2 / self.unprotected_area_mm2 - 1.0) * 100.0

    @property
    def normalised_ordering_power(self) -> float:
        """Ordering power normalised to removal power (Figure 10's y-axis)."""
        if self.removal_power_mw == 0:
            return 0.0
        return self.ordering_power_mw / self.removal_power_mw

    # ------------------------------------------------------------------
    def as_row(self) -> Dict[str, Any]:
        """Flat dictionary for tables and JSON dumps (legacy row schema)."""
        return {
            "benchmark": self.benchmark,
            "switch_count": self.switch_count,
            "removal_extra_vcs": self.removal_extra_vcs,
            "ordering_extra_vcs": self.ordering_extra_vcs,
            "vc_reduction_percent": round(self.vc_reduction_percent, 2),
            "removal_power_mw": round(self.removal_power_mw, 3),
            "ordering_power_mw": round(self.ordering_power_mw, 3),
            "unprotected_power_mw": round(self.unprotected_power_mw, 3),
            "power_saving_percent": round(self.power_saving_percent, 2),
            "removal_area_mm2": round(self.removal_area_mm2, 4),
            "ordering_area_mm2": round(self.ordering_area_mm2, 4),
            "unprotected_area_mm2": round(self.unprotected_area_mm2, 4),
            "area_saving_percent": round(self.area_saving_percent, 2),
            "removal_power_overhead_percent": round(self.removal_power_overhead_percent, 2),
            "removal_area_overhead_percent": round(self.removal_area_overhead_percent, 2),
            "removal_runtime_s": round(self.removal_runtime_s, 4),
        }

    def to_dict(self) -> Dict[str, Any]:
        """Serializable record (the artifact-cache ``"result"`` document).

        The ``simulation`` section is only present when the spec requested
        one, so documents of cost-only specs stay byte-identical to the
        previous schema.
        """
        document = {
            "format_version": RESULT_FORMAT_VERSION,
            "spec": self.spec.to_dict(),
        }
        document.update((name, getattr(self, name)) for name in COST_SCALAR_FIELDS)
        if self.simulation is not None:
            document["simulation"] = self.simulation
        if self.attempts > 1:
            document["attempts"] = self.attempts
        return document

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunResult":
        """Rebuild a record; malformed documents raise :class:`PlanError`."""
        if not isinstance(data, Mapping):
            raise PlanError(f"run result must be a mapping, got {type(data).__name__}")
        version = data.get("format_version", RESULT_FORMAT_VERSION)
        if version != RESULT_FORMAT_VERSION:
            raise PlanError(
                f"unsupported result format version {version} "
                f"(expected {RESULT_FORMAT_VERSION})"
            )
        try:
            return cls(
                spec=RunSpec.from_dict(data["spec"]),
                simulation=data.get("simulation"),
                attempts=data.get("attempts", 1),
                **{name: data[name] for name in COST_SCALAR_FIELDS},
            )
        except KeyError as exc:
            raise PlanError(f"run result document is missing field {exc}") from exc

    def __post_init__(self):
        if self.spec.injection_scale is not None and self.simulation is None:
            raise PlanError(
                "run result for a simulating spec (injection_scale="
                f"{self.spec.injection_scale}) has no simulation section"
            )


#: The cost-side scalars of a record — every :class:`RunResult` field but
#: the spec, the simulation section and the runtime bookkeeping — in
#: declaration order, which is also their key order in record and
#: cost-bundle documents.
COST_SCALAR_FIELDS = tuple(
    f.name
    for f in fields(RunResult)
    if f.name not in ("spec", "simulation", "cache_hit", "attempts")
)
