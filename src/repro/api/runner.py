"""Plan execution: the :class:`Runner` behind the declarative experiment API.

The runner turns :class:`~repro.api.spec.RunSpec` points into
:class:`~repro.api.result.RunResult` records:

* **cache first** — each spec's fingerprint is looked up in the
  content-addressed :class:`~repro.api.cache.ArtifactCache`; a hit skips
  the whole synthesize/remove/order/estimate pipeline.  On a result miss
  the synthesized design itself may still be served from the cache (specs
  that differ only in engine or strategy share it).
* **cost bundles** — the cost side of a record (removal, ordering, power,
  area *and* the three variant designs) is content-addressed separately
  under :meth:`RunSpec.cost_fingerprint`, so the load points of a latency
  sweep — which differ only along the simulation axis — pay the removal
  pipeline once instead of once per point on a cold cache.
* **batched simulation** — simulating specs with ``sim_engine: "batched"``
  that share a cost bundle are grouped by :func:`_plan_batches` and run as
  one grid of compiled lanes per design variant
  (:func:`repro.analysis.performance.measure_load_grid`), still yielding
  one cached :class:`RunResult` per spec with unchanged fingerprints and
  record bytes.  Fault specs run per spec.
* **cheap fan-out** — plans execute over
  :func:`repro.perf.executor.parallel_map`; only the small spec dictionary
  crosses the process boundary, and every worker resolves the benchmark
  traffic once per ``(name, seed)`` through a per-process memo instead of
  unpickling a full :class:`CommunicationGraph` per point.
* **uniform records** — results use the one JSON schema of
  :class:`RunResult`, shared by tables, figure formatters and the CLI.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.experiments import compare_methods
from repro.api.cache import ArtifactCache
from repro.api.result import COST_SCALAR_FIELDS, RunResult
from repro.api.spec import ExperimentPlan, RunSpec
from repro.errors import ReproError
from repro.model.design import NocDesign
from repro.model.serialization import design_from_dict, design_to_dict
from repro.perf.executor import parallel_map

RESULT_KIND = "result"
DESIGN_KIND = "design"
COST_KIND = "costs"

#: Version tag of the cost-bundle cache document; bump on schema changes.
COST_FORMAT_VERSION = 1

#: Registry name of the batch-capable simulation engine.  A string (not an
#: import from :mod:`repro.perf.batch_engine`) so planning a batch never
#: imports the simulation stack.
ENGINE_BATCHED = "batched"

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "NOC_DEADLOCK_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$NOC_DEADLOCK_CACHE_DIR`` or ``~/.cache/noc-deadlock``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "noc-deadlock"


#: Design variants a simulating spec evaluates, in record order.
SIMULATED_VARIANTS = ("unprotected", "removal", "ordering")

@dataclass
class _CostBundle:
    """Cost-side outcome of one design point, shared across load points.

    ``scalars`` are the :data:`~repro.api.result.COST_SCALAR_FIELDS`
    constructor keywords of :class:`RunResult` (VC counts, removal
    bookkeeping, power, area); ``designs`` maps each
    :data:`SIMULATED_VARIANTS` entry to its :class:`NocDesign`.  Every
    spec sharing a :meth:`RunSpec.cost_fingerprint` shares one bundle, so
    its records carry *identical* cost scalars (including
    ``removal_runtime_s``) no matter which load point ran first.
    """

    scalars: Dict[str, Any]
    designs: Dict[str, NocDesign]


def _bundle_from_comparison(comparison) -> _CostBundle:
    """Reduce a :class:`~repro.analysis.experiments.MethodComparison`."""
    return _CostBundle(
        scalars={
            "removal_extra_vcs": comparison.removal_extra_vcs,
            "ordering_extra_vcs": comparison.ordering_extra_vcs,
            "removal_iterations": comparison.removal.iterations,
            "initial_cycle_count": comparison.removal.initial_cycle_count,
            "removal_runtime_s": comparison.removal.runtime_seconds,
            "unprotected_power_mw": comparison.unprotected_power.total_power_mw,
            "removal_power_mw": comparison.removal_power.total_power_mw,
            "ordering_power_mw": comparison.ordering_power.total_power_mw,
            "unprotected_area_mm2": comparison.unprotected_area.total_area_mm2,
            "removal_area_mm2": comparison.removal_area.total_area_mm2,
            "ordering_area_mm2": comparison.ordering_area.total_area_mm2,
        },
        designs={
            "unprotected": comparison.unprotected,
            "removal": comparison.removal.design,
            "ordering": comparison.ordering.design,
        },
    )


def _bundle_to_document(bundle: _CostBundle) -> Dict[str, Any]:
    return {
        "format_version": COST_FORMAT_VERSION,
        "scalars": dict(bundle.scalars),
        "designs": {
            variant: design_to_dict(bundle.designs[variant])
            for variant in SIMULATED_VARIANTS
        },
    }


def _bundle_from_document(document: Mapping[str, Any]) -> Optional[_CostBundle]:
    """Rebuild a cached cost bundle; any malformation is a miss (``None``)."""
    try:
        if document.get("format_version") != COST_FORMAT_VERSION:
            return None
        scalars = {name: document["scalars"][name] for name in COST_SCALAR_FIELDS}
        designs = {
            variant: design_from_dict(document["designs"][variant])
            for variant in SIMULATED_VARIANTS
        }
    except (KeyError, TypeError, ReproError):
        return None
    return _CostBundle(scalars=scalars, designs=designs)


def _resolve_costs(spec: RunSpec, cache: Optional[ArtifactCache] = None) -> _CostBundle:
    """The spec's cost bundle: cached under ``cost_fingerprint`` or computed.

    On a bundle miss the synthesized (unprotected) design may still be
    served from the ``design`` cache (specs differing only in engine or
    strategy share it), exactly as before the cost-bundle layer.
    """
    cost_key = spec.cost_fingerprint()
    if cache is not None:
        document = cache.get(COST_KIND, cost_key)
        if document is not None:
            bundle = _bundle_from_document(document)
            if bundle is not None:
                return bundle

    unprotected = None
    design_key = spec.synthesis_fingerprint()
    if cache is not None:
        design_doc = cache.get(DESIGN_KIND, design_key)
        if design_doc is not None:
            try:
                unprotected = design_from_dict(design_doc)
            except ReproError:
                unprotected = None

    # compare_methods resolves the benchmark name through the per-process
    # memo only when it actually has to synthesize (design-cache miss).
    comparison = compare_methods(
        spec.benchmark,
        spec.switch_count,
        seed=spec.seed,
        synthesis_overrides=spec.synthesis,
        engine=spec.engine,
        ordering_strategy=spec.ordering_strategy,
        synthesis_backend=spec.synthesis_backend,
        routing_engine=spec.routing_engine,
        topology_family=spec.topology_family,
        family_params=spec.family_params,
        unprotected=unprotected,
    )
    bundle = _bundle_from_comparison(comparison)
    if cache is not None:
        if unprotected is None:
            cache.put(DESIGN_KIND, design_key, design_to_dict(comparison.unprotected))
        cache.put(COST_KIND, cost_key, _bundle_to_document(bundle))
    return bundle


def execute_spec(spec: RunSpec, cache: Optional[ArtifactCache] = None) -> RunResult:
    """Execute one spec, consulting and feeding ``cache`` when given.

    Cached documents are never trusted: any entry that fails to
    deserialize (corrupt, stale schema version, missing fields) is treated
    as a miss and recomputed, not raised.
    """
    result = _cached_result(spec, cache)
    if result is not None:
        return result
    bundle = _resolve_costs(spec, cache)
    simulation = _simulate_spec(spec, bundle.designs) if spec.injection_scale else None
    return _store_result(spec, bundle, simulation, cache)


def _cached_result(spec: RunSpec, cache: Optional[ArtifactCache]) -> Optional[RunResult]:
    """The spec's cached record, or ``None`` on a miss or an unreadable entry."""
    document = cache.get(RESULT_KIND, spec.fingerprint()) if cache is not None else None
    if document is None:
        return None
    try:
        result = RunResult.from_dict(document)
    except ReproError:
        return None
    result.cache_hit = True
    return result


def _store_result(
    spec: RunSpec, bundle: _CostBundle, simulation, cache: Optional[ArtifactCache]
) -> RunResult:
    """Assemble the spec's record and write it to ``cache`` when given."""
    result = RunResult(spec=spec, simulation=simulation, **bundle.scalars)
    if cache is not None:
        cache.put(RESULT_KIND, spec.fingerprint(), result.to_dict())
    return result


def _simulation_document(
    spec: RunSpec, variants: Dict[str, Any], schedule
) -> Dict[str, Any]:
    """Assemble the record's ``simulation`` section from per-variant metrics.

    One assembly point for the solo and batched paths, so both serialize
    byte-identically for the same spec and metrics.
    """
    simulation = {
        "engine": spec.sim_engine,
        "traffic_scenario": spec.traffic_scenario,
        "injection_scale": spec.injection_scale,
        "sim_cycles": spec.sim_cycles,
        "buffer_depth": spec.buffer_depth,
        "seed": spec.seed,
        "variants": variants,
    }
    if spec.scenario_params:
        simulation["scenario_params"] = dict(spec.scenario_params)
    if spec.fault_schedule is not None:
        simulation["fault_schedule"] = dict(spec.fault_schedule)
    if spec.fault_model is not None:
        simulation["fault_model"] = spec.fault_model
        if spec.fault_params:
            simulation["fault_params"] = dict(spec.fault_params)
    if schedule is not None:
        simulation["fault_recovery"] = spec.fault_recovery
    return simulation


def _simulate_spec(spec: RunSpec, designs: Dict[str, NocDesign]) -> Dict[str, Any]:
    """Wormhole-simulate the bundle's designs at the spec's load point.

    All three variants run with the same engine, scenario and seed (the
    seed is :attr:`RunSpec.seed`, so repeated executions of one spec are
    reproducible); deadlocks — expected for the unprotected variant under
    pressure — are recorded in the metrics, never raised.
    """
    from repro.analysis.performance import measure_load_point  # local: lazy sim import
    from repro.simulation.fault_models import build_fault_schedule  # local: lazy sim import

    # Resolve a fault-schedule request (explicit document or fault-model
    # generator) once, against the unprotected design: the protected
    # variants only ever *add* channels on the same physical links, so a
    # schedule drawn here targets links that exist in every variant — all
    # three degrade under identical faults.  The cascade model also reads
    # the unprotected design's link loads, which every variant shares.
    schedule = build_fault_schedule(
        designs["unprotected"],
        fault_model=spec.fault_model,
        fault_params=spec.fault_params,
        fault_schedule=spec.fault_schedule,
        seed=spec.seed,
    )
    variants = {
        variant: measure_load_point(
            designs[variant],
            injection_scale=spec.injection_scale,
            max_cycles=spec.sim_cycles,
            buffer_depth=spec.buffer_depth,
            seed=spec.seed,
            traffic_scenario=spec.traffic_scenario,
            scenario_params=spec.scenario_params,
            sim_engine=spec.sim_engine,
            fault_schedule=schedule,
            fault_recovery=spec.fault_recovery,
        )
        for variant in SIMULATED_VARIANTS
    }
    return _simulation_document(spec, variants, schedule)


def _simulate_spec_batch(
    specs: Sequence[RunSpec], designs: Dict[str, NocDesign]
) -> List[Dict[str, Any]]:
    """Simulate a batch group's load points: one grid of lanes per variant.

    The specs are one :func:`_plan_batches` group (shared cost bundle,
    ``sim_cycles`` and ``buffer_depth``; no fault fields), so each design
    variant runs all the group's lanes in a single
    :func:`~repro.analysis.performance.measure_load_grid` call.  Returns
    one ``simulation`` document per spec, in order, byte-identical to what
    :func:`_simulate_spec` produces for the same spec.
    """
    from repro.analysis.performance import measure_load_grid  # local: lazy sim import

    first = specs[0]
    points = [
        {
            "injection_scale": spec.injection_scale,
            "seed": spec.seed,
            "traffic_scenario": spec.traffic_scenario,
            "scenario_params": spec.scenario_params,
        }
        for spec in specs
    ]
    grids = {
        variant: measure_load_grid(
            designs[variant],
            points,
            max_cycles=first.sim_cycles,
            buffer_depth=first.buffer_depth,
        )
        for variant in SIMULATED_VARIANTS
    }
    documents = []
    for lane, spec in enumerate(specs):
        variants = {variant: grids[variant][lane] for variant in SIMULATED_VARIANTS}
        documents.append(_simulation_document(spec, variants, None))
    return documents


def execute_spec_batch(
    specs: Sequence[RunSpec], cache: Optional[ArtifactCache] = None
) -> List[RunResult]:
    """Execute one batch group of specs, one grid per design variant.

    ``specs`` must be a :func:`_plan_batches` group: batch-eligible and
    sharing a :meth:`RunSpec.cost_fingerprint`, ``sim_cycles`` and
    ``buffer_depth``.  Cached results are served per spec exactly as
    :func:`execute_spec` serves them; only the misses run, batched.  The
    returned records — and the documents written to ``cache`` — are
    byte-identical to executing each spec alone.
    """
    results = [_cached_result(spec, cache) for spec in specs]
    missing = [index for index, result in enumerate(results) if result is None]
    if missing:
        bundle = _resolve_costs(specs[missing[0]], cache)
        simulations = _simulate_spec_batch([specs[index] for index in missing], bundle.designs)
        for index, simulation in zip(missing, simulations):
            results[index] = _store_result(specs[index], bundle, simulation, cache)
    return results


# ----------------------------------------------------------------------
# Batch planning
# ----------------------------------------------------------------------


def _batchable(spec: RunSpec) -> bool:
    """Can this spec join a batched execution group at all?

    Only specs that *ask* for the batched engine batch — the grouping must
    never change which engine a spec's record claims.  Fault schedules and
    fault models run per spec, each variant alone on the engine.
    """
    return (
        spec.sim_engine == ENGINE_BATCHED
        and spec.injection_scale is not None
        and spec.fault_schedule is None
        and spec.fault_model is None
    )


def _plan_batches(specs: Sequence[RunSpec]) -> List[List[int]]:
    """Group batch-eligible specs into index lists covering every spec once.

    Multi-member lists are batch groups (shared
    :meth:`RunSpec.cost_fingerprint`, ``sim_cycles``, ``buffer_depth``);
    singletons execute through :func:`execute_spec`.  Deterministic:
    groups appear in first-member order, members in plan order.
    """
    keyed: Dict[Any, List[int]] = {}
    for index, spec in enumerate(specs):
        if _batchable(spec):
            key = (spec.cost_fingerprint(), spec.sim_cycles, spec.buffer_depth)
        else:
            key = ("solo", index)
        keyed.setdefault(key, []).append(index)
    return list(keyed.values())


def _run_batch_task(task: Tuple[List[Dict[str, Any]], Optional[str]]) -> List[RunResult]:
    """One :func:`parallel_map` task: a batch of spec dictionaries + cache directory.

    Module-level so :func:`parallel_map` can pickle it; only the small spec
    dictionaries travel to a worker, never a design or traffic object.
    """
    spec_dicts, cache_dir = task
    specs = [RunSpec.from_dict(data) for data in spec_dicts]
    cache = ArtifactCache(cache_dir) if cache_dir else None
    if len(specs) == 1:
        return [execute_spec(specs[0], cache)]
    return execute_spec_batch(specs, cache)


@dataclass
class PlanResult:
    """Everything a finished plan produced, in ``plan.all_specs()`` order."""

    plan: ExperimentPlan
    results: List[RunResult] = field(default_factory=list)
    #: Memoised render_reports() output (reports are pure folds of the
    #: results, so rendering once is enough for print + to_dict).
    _rendered: Optional[List[Tuple[str, Dict[str, Any]]]] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return sum(1 for result in self.results if result.cache_hit)

    def results_by_fingerprint(self) -> Dict[str, RunResult]:
        return {result.spec.fingerprint(): result for result in self.results}

    def result_for(self, spec: RunSpec) -> RunResult:
        """The record of one spec (KeyError when the plan never ran it)."""
        return self.results_by_fingerprint()[spec.fingerprint()]

    def rows(self) -> List[Dict[str, Any]]:
        """Legacy flat rows, one per executed spec."""
        return [result.as_row() for result in self.results]

    def render_reports(self) -> List[Tuple[str, Dict[str, Any]]]:
        """Render every requested report, in plan order.

        Returns ``(type, document)`` pairs; the documents are exactly what
        the legacy per-figure helpers produce, so a figure plan's output is
        byte-identical to the ``figures`` subcommand.
        """
        from repro.api.reports import report_types  # local: avoid import cycle

        if self._rendered is None:
            lookup = self.results_by_fingerprint()
            rendered: List[Tuple[str, Dict[str, Any]]] = []
            for request in self.plan.reports:
                report = report_types.get(request.type)
                rendered.append((request.type, report.render(request.params, lookup)))
            self._rendered = rendered
        return self._rendered

    def to_dict(self) -> Dict[str, Any]:
        return {
            "plan": self.plan.to_dict(),
            "results": [result.to_dict() for result in self.results],
            "reports": [
                {"type": name, "data": document}
                for name, document in self.render_reports()
            ],
        }


class Runner:
    """Executes specs and plans, optionally cached and in parallel.

    Parameters
    ----------
    cache_dir:
        Artifact-cache directory; ``None`` disables caching entirely.
    jobs:
        Worker-process count for plans, as in ``noc-deadlock figures -j``
        (``None``/``0``/``1`` = serial, negative = one per CPU).
    """

    def __init__(
        self,
        *,
        cache_dir: Optional[Union[str, Path]] = None,
        jobs: Optional[int] = None,
    ):
        self.cache_dir = str(cache_dir) if cache_dir is not None else None
        self.jobs = jobs
        self.cache = ArtifactCache(self.cache_dir) if self.cache_dir else None

    # ------------------------------------------------------------------
    def run_spec(self, spec: RunSpec) -> RunResult:
        """Execute a single spec in-process."""
        return execute_spec(spec, self.cache)

    def run(self, plan: ExperimentPlan) -> PlanResult:
        """Execute every spec of ``plan`` (deduplicated) and return results.

        Batch-eligible specs (``sim_engine: "batched"`` grids sharing a
        cost bundle) execute as grouped grids of lanes; everything else
        runs per spec.  Results come back in ``plan.all_specs()`` order
        regardless of grouping.
        """
        specs = plan.all_specs()
        batches = _plan_batches(specs)
        tasks = [
            ([specs[index].to_dict() for index in batch], self.cache_dir)
            for batch in batches
        ]
        # parallel_map runs the tasks inline when jobs resolves to 1.
        attempts: List[int] = []
        batch_results = parallel_map(
            _run_batch_task, tasks, jobs=self.jobs, attempts_out=attempts
        )
        ordered: Dict[int, RunResult] = {}
        for batch, group_results, tries in zip(batches, batch_results, attempts):
            for index, result in zip(batch, group_results):
                result.attempts = tries
                ordered[index] = result
        results = [ordered[index] for index in range(len(specs))]
        return PlanResult(plan=plan, results=results)


def run_plan(
    plan: Union[ExperimentPlan, str, Path],
    *,
    cache_dir: Optional[Union[str, Path]] = None,
    jobs: Optional[int] = None,
) -> PlanResult:
    """Convenience wrapper: load (when given a path) and execute a plan."""
    if not isinstance(plan, ExperimentPlan):
        plan = ExperimentPlan.load(plan)
    return Runner(cache_dir=cache_dir, jobs=jobs).run(plan)
