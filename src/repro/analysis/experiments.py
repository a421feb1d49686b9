"""The three-way comparison behind the paper's evaluation.

For a benchmark traffic specification and a switch count the paper's
experiments compare three variants of the same synthesized topology:

* **unprotected** — the synthesized design as-is (may deadlock);
* **deadlock removal** — the paper's algorithm (adds few VCs);
* **resource ordering** — the classic avoidance scheme (adds many VCs).

:func:`compare_methods` produces all three plus their VC counts, power and
area for one point; the figure reports of :mod:`repro.api.reports` run it
over the switch-count grids of Figures 8 and 9 through the cached
:class:`~repro.api.runner.Runner`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Union

from repro.analysis.metrics import percent_reduction
from repro.api.registry import synthesis_backends
from repro.benchmarks.registry import get_benchmark
from repro.core.removal import DEFAULT_REMOVAL_ENGINE, remove_deadlocks
from repro.core.report import RemovalResult
from repro.model.design import NocDesign
from repro.model.traffic import CommunicationGraph
from repro.power.estimator import (
    NocAreaReport,
    NocPowerReport,
    estimate_power_and_area,
)
from repro.power.orion import TechnologyParameters
from repro.routing.ordering import (
    STRATEGY_HOP_INDEX,
    OrderingResult,
    apply_resource_ordering,
)
from repro.synthesis.builder import SynthesisConfig


@dataclass
class MethodComparison:
    """All numbers the evaluation needs for one (benchmark, switch count) point."""

    benchmark: str
    switch_count: int
    unprotected: NocDesign
    removal: RemovalResult
    ordering: OrderingResult
    unprotected_power: NocPowerReport
    removal_power: NocPowerReport
    ordering_power: NocPowerReport
    unprotected_area: NocAreaReport
    removal_area: NocAreaReport
    ordering_area: NocAreaReport

    # ------------------------------------------------------------------
    # headline numbers
    # ------------------------------------------------------------------
    @property
    def removal_extra_vcs(self) -> int:
        """Extra VCs added by the deadlock-removal algorithm."""
        return self.removal.added_vc_count

    @property
    def ordering_extra_vcs(self) -> int:
        """Extra VCs added by resource ordering."""
        return self.ordering.extra_vcs

    @property
    def vc_reduction_percent(self) -> float:
        """How many fewer VCs removal needs than ordering (the 88% claim)."""
        return percent_reduction(self.ordering_extra_vcs, self.removal_extra_vcs)

    @property
    def power_saving_percent(self) -> float:
        """Power saved by removal relative to ordering (the 8.6% claim)."""
        return percent_reduction(
            self.ordering_power.total_power_mw, self.removal_power.total_power_mw
        )

    @property
    def area_saving_percent(self) -> float:
        """Router+link area saved by removal relative to ordering (66% claim)."""
        return percent_reduction(
            self.ordering_area.total_area_mm2, self.removal_area.total_area_mm2
        )

    @property
    def removal_power_overhead_percent(self) -> float:
        """Power overhead of removal vs. the unprotected design (<5% claim)."""
        if self.unprotected_power.total_power_mw == 0:
            return 0.0
        return (
            self.removal_power.total_power_mw / self.unprotected_power.total_power_mw
            - 1.0
        ) * 100.0

    @property
    def removal_area_overhead_percent(self) -> float:
        """Area overhead of removal vs. the unprotected design (<5% claim)."""
        if self.unprotected_area.total_area_mm2 == 0:
            return 0.0
        return (
            self.removal_area.total_area_mm2 / self.unprotected_area.total_area_mm2
            - 1.0
        ) * 100.0

    @property
    def normalised_ordering_power(self) -> float:
        """Ordering power normalised to removal power (Figure 10's y-axis)."""
        if self.removal_power.total_power_mw == 0:
            return 0.0
        return self.ordering_power.total_power_mw / self.removal_power.total_power_mw

    def as_row(self) -> Dict[str, float]:
        """Flat dictionary for tables and JSON dumps."""
        return {
            "benchmark": self.benchmark,
            "switch_count": self.switch_count,
            "removal_extra_vcs": self.removal_extra_vcs,
            "ordering_extra_vcs": self.ordering_extra_vcs,
            "vc_reduction_percent": round(self.vc_reduction_percent, 2),
            "removal_power_mw": round(self.removal_power.total_power_mw, 3),
            "ordering_power_mw": round(self.ordering_power.total_power_mw, 3),
            "unprotected_power_mw": round(self.unprotected_power.total_power_mw, 3),
            "power_saving_percent": round(self.power_saving_percent, 2),
            "removal_area_mm2": round(self.removal_area.total_area_mm2, 4),
            "ordering_area_mm2": round(self.ordering_area.total_area_mm2, 4),
            "unprotected_area_mm2": round(self.unprotected_area.total_area_mm2, 4),
            "area_saving_percent": round(self.area_saving_percent, 2),
            "removal_power_overhead_percent": round(self.removal_power_overhead_percent, 2),
            "removal_area_overhead_percent": round(self.removal_area_overhead_percent, 2),
            "removal_runtime_s": round(self.removal.runtime_seconds, 4),
        }


@lru_cache(maxsize=None)
def resolve_benchmark_traffic(name: str, seed: int = 0) -> CommunicationGraph:
    """Benchmark traffic by registry name, memoised per process.

    Sweep workers call this instead of unpickling a full
    :class:`CommunicationGraph` per point: only the (name, seed) pair
    crosses the process boundary and the graph is built once per worker.
    Callers must treat the returned graph as read-only (the synthesis
    pipeline copies it into each design).
    """
    return get_benchmark(name, seed=seed)


def _resolve_traffic(
    benchmark: Union[str, CommunicationGraph], seed: int
) -> CommunicationGraph:
    if isinstance(benchmark, CommunicationGraph):
        return benchmark
    return resolve_benchmark_traffic(benchmark, seed)


def compare_methods(
    benchmark: Union[str, CommunicationGraph],
    switch_count: int,
    *,
    seed: int = 0,
    tech: Optional[TechnologyParameters] = None,
    synthesis_overrides: Optional[Dict] = None,
    engine: str = DEFAULT_REMOVAL_ENGINE,
    ordering_strategy: str = STRATEGY_HOP_INDEX,
    synthesis_backend: str = "custom",
    routing_engine: str = "indexed",
    topology_family: Optional[str] = None,
    family_params: Optional[Dict] = None,
    unprotected: Optional[NocDesign] = None,
) -> MethodComparison:
    """Run the full unprotected / removal / ordering comparison for one point.

    ``engine``, ``ordering_strategy``, ``synthesis_backend``,
    ``routing_engine`` and ``topology_family`` name entries of the
    pluggable registries in :mod:`repro.api.registry` (``topology_family``
    with its ``family_params`` routes synthesis through the parameterized
    generator).  Passing a pre-synthesized ``unprotected`` design (e.g.
    from the artifact cache) skips the synthesis step entirely.
    """
    if unprotected is None:
        # Only resolve the benchmark traffic when synthesis actually needs
        # it; with a pre-built design (e.g. from the artifact cache) the
        # design's own traffic copy carries everything downstream uses.
        traffic = _resolve_traffic(benchmark, seed)
        overrides = dict(synthesis_overrides or {})
        overrides.setdefault("routing_engine", routing_engine)
        if topology_family is not None:
            overrides.setdefault("topology_family", topology_family)
            overrides.setdefault("family_params", dict(family_params or {}))
        config = SynthesisConfig(n_switches=switch_count, seed=seed, **overrides)
        backend = synthesis_backends.get(synthesis_backend)
        unprotected = backend(traffic, config)
        benchmark_name = traffic.name
    else:
        benchmark_name = unprotected.traffic.name

    removal = remove_deadlocks(unprotected, engine=engine)
    ordering = apply_resource_ordering(unprotected, strategy=ordering_strategy)

    tech = tech or TechnologyParameters()
    # One fused pass per design: power and area share the router-load /
    # port-count / link-load derivations instead of re-deriving them.
    unprotected_power, unprotected_area = estimate_power_and_area(unprotected, tech=tech)
    removal_power, removal_area = estimate_power_and_area(removal.design, tech=tech)
    ordering_power, ordering_area = estimate_power_and_area(ordering.design, tech=tech)
    return MethodComparison(
        benchmark=benchmark_name,
        switch_count=switch_count,
        unprotected=unprotected,
        removal=removal,
        ordering=ordering,
        unprotected_power=unprotected_power,
        removal_power=removal_power,
        ordering_power=ordering_power,
        unprotected_area=unprotected_area,
        removal_area=removal_area,
        ordering_area=ordering_area,
    )
