"""The three-way comparison behind the paper's evaluation.

For one :class:`~repro.api.spec.RunSpec` (benchmark, switch count, seed,
synthesis knobs, removal engine, ordering strategy) the paper's experiments
compare three variants of the same synthesized topology:

* **unprotected** — the synthesized design as-is (may deadlock);
* **deadlock removal** — the paper's algorithm (adds few VCs);
* **resource ordering** — the classic avoidance scheme (adds many VCs).

:func:`compare_methods` produces all three designs plus their VC counts,
removal bookkeeping, power and area as one :class:`CostBundle`, which the
:class:`~repro.api.runner.Runner` caches per
:meth:`~repro.api.spec.RunSpec.cost_fingerprint`.  The paper's derived
claims (VC reduction, power and area savings, overheads) are properties of
:class:`~repro.api.result.RunResult`, computed from the bundle's scalars.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Dict

from repro.api.result import NOT_COUNTED
from repro.api.spec import RunSpec
from repro.benchmarks.registry import get_benchmark
from repro.core.removal import remove_deadlocks
from repro.model.design import NocDesign
from repro.model.traffic import CommunicationGraph
from repro.power.estimator import estimate_power_and_area
from repro.routing.ordering import apply_resource_ordering
from repro.synthesis import builder

#: Design variants of one comparison, in record order.
VARIANTS = ("unprotected", "removal", "ordering")


@dataclass
class CostBundle:
    """Cost-side outcome of one design point, shared across load points.

    ``scalars`` are the :data:`~repro.api.result.COST_SCALAR_FIELDS`
    constructor keywords of :class:`~repro.api.result.RunResult` (VC
    counts, removal bookkeeping, power, area), in that order; ``designs``
    maps each :data:`VARIANTS` entry to its :class:`NocDesign`.  Every spec
    sharing a :meth:`~repro.api.spec.RunSpec.cost_fingerprint` shares one
    bundle, so its records carry *identical* cost scalars (including
    ``removal_runtime_s``) no matter which load point ran first.
    """

    scalars: Dict[str, Any]
    designs: Dict[str, NocDesign]


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


def compare_methods(spec: RunSpec) -> CostBundle:
    """Run the unprotected / removal / ordering comparison of one spec.

    Synthesizes the spec's design, runs the spec's removal engine and
    ordering strategy on it and estimates power and area of all three
    variants.  Every stage is looked up on its module at call time
    (:func:`repro.synthesis.builder.synthesize_design` and this module's
    ``remove_deadlocks``, ``apply_resource_ordering`` and
    ``estimate_power_and_area``), so a patched binding sees every call.
    """
    traffic = resolve_benchmark_traffic(spec.benchmark, spec.seed)
    config = builder.SynthesisConfig(
        n_switches=spec.switch_count,
        routing_engine=spec.routing_engine,
        topology_family=spec.topology_family,
        family_params=spec.family_params,
        **spec.synthesis,
    )
    unprotected = builder.synthesize_design(traffic, config)

    removal = remove_deadlocks(unprotected, engine=spec.engine)
    ordering = apply_resource_ordering(unprotected, strategy=spec.ordering_strategy)
    # One fused pass per design: power and area share the router-load /
    # port-count / link-load derivations instead of re-deriving them.
    unprotected_power, unprotected_area = estimate_power_and_area(unprotected)
    removal_power, removal_area = estimate_power_and_area(removal.design)
    ordering_power, ordering_area = estimate_power_and_area(ordering.design)
    return CostBundle(
        scalars={
            "removal_extra_vcs": removal.added_vc_count,
            "ordering_extra_vcs": ordering.extra_vcs,
            "removal_iterations": removal.iterations,
            "initial_cycle_count": NOT_COUNTED,
            "initial_cyclic_sccs": removal.initial_cyclic_sccs,
            "initial_largest_scc": removal.initial_largest_scc,
            "initial_cyclic_channels": removal.initial_cyclic_channels,
            "removal_runtime_s": removal.runtime_seconds,
            "unprotected_power_mw": unprotected_power.total_power_mw,
            "removal_power_mw": removal_power.total_power_mw,
            "ordering_power_mw": ordering_power.total_power_mw,
            "unprotected_area_mm2": unprotected_area.total_area_mm2,
            "removal_area_mm2": removal_area.total_area_mm2,
            "ordering_area_mm2": ordering_area.total_area_mm2,
        },
        designs={
            "unprotected": unprotected,
            "removal": removal.design,
            "ordering": ordering.design,
        },
    )
