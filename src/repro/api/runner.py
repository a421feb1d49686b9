"""Plan execution: the :class:`Runner` behind the declarative experiment API.

The runner turns :class:`~repro.api.spec.RunSpec` points into
:class:`~repro.api.result.RunResult` records:

* **cache first** — each spec's fingerprint is looked up in the
  content-addressed :class:`~repro.api.cache.ArtifactCache`; a hit skips
  the whole synthesize/remove/order/estimate pipeline.
* **cost bundles** — the cost side of a record (removal, ordering, power,
  area *and* the three variant designs) is the
  :class:`~repro.analysis.experiments.CostBundle` that
  :func:`~repro.analysis.experiments.compare_methods` returns for the
  spec, content-addressed separately under
  :meth:`RunSpec.cost_fingerprint`, so the load points of a latency
  sweep — which differ only along the simulation axis — pay the removal
  pipeline once instead of once per point on a cold cache.
* **one simulation path** — :func:`_simulate_specs` simulates a list of
  specs that share a cost bundle.  Each spec becomes one
  :class:`~repro.simulation.simulator.SimulationConfig`, which every
  design variant runs as one grid of lanes per variant
  (:func:`repro.analysis.performance.measure_load_grid`; a single spec is
  a grid of one).  :func:`_plan_batches` groups the specs that share one
  :func:`_batch_key` (cost bundle, ``sim_cycles``, ``buffer_depth`` and
  ``sim_engine``), whatever their engine, so a latency curve, a seed
  sweep and an availability grid of fault specs each decode their bundle
  once and run on the engine the specs name.  Batching still yields one
  cached :class:`RunResult` per spec with unchanged fingerprints and
  record bytes.
* **cheap fan-out** — plans execute over
  :func:`repro.perf.executor.parallel_map`; only the small spec dictionary
  crosses the process boundary, and every worker resolves the benchmark
  traffic once per ``(name, seed)`` through a per-process memo instead of
  unpickling a full :class:`CommunicationGraph` per point.  Batches that
  read one cost bundle in different workers read it from the cache, where
  it was resolved once before the fan-out.
* **uniform records** — results use the one JSON schema of
  :class:`RunResult`, shared by tables, figure formatters and the CLI.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.analysis.experiments import VARIANTS, CostBundle, compare_methods
from repro.api.cache import ArtifactCache
from repro.api.result import COST_SCALAR_FIELDS, RunResult
from repro.api.spec import ExperimentPlan, RunSpec
from repro.domains import at_least, knobs
from repro.errors import PlanError, ReproError
from repro.model.design import NocDesign
from repro.model.serialization import design_from_dict, design_to_dict
from repro.perf.executor import parallel_map, resolve_jobs

RESULT_KIND = "result"
COST_KIND = "costs"

#: Version tag of the cost-bundle cache document; bump on schema changes.
COST_FORMAT_VERSION = 1

#: Environment variable overriding the default cache location.
CACHE_DIR_ENV = "NOC_DEADLOCK_CACHE_DIR"


def default_cache_dir() -> Path:
    """``$NOC_DEADLOCK_CACHE_DIR`` or ``~/.cache/noc-deadlock``."""
    override = os.environ.get(CACHE_DIR_ENV)
    if override:
        return Path(override).expanduser()
    return Path.home() / ".cache" / "noc-deadlock"


def _bundle_to_document(bundle: CostBundle) -> Dict[str, Any]:
    return {
        "format_version": COST_FORMAT_VERSION,
        "scalars": dict(bundle.scalars),
        "designs": {
            variant: design_to_dict(bundle.designs[variant]) for variant in VARIANTS
        },
    }


def _bundle_from_document(document: Mapping[str, Any]) -> Optional[CostBundle]:
    """Rebuild a cached cost bundle; any malformation is a miss (``None``)."""
    try:
        if document.get("format_version") != COST_FORMAT_VERSION:
            return None
        scalars = {name: document["scalars"][name] for name in COST_SCALAR_FIELDS}
        designs = {
            variant: design_from_dict(document["designs"][variant]) for variant in VARIANTS
        }
    except (KeyError, TypeError, ReproError):
        return None
    return CostBundle(scalars=scalars, designs=designs)


def _resolve_costs(spec: RunSpec, cache: Optional[ArtifactCache] = None) -> CostBundle:
    """The spec's cost bundle: cached under ``cost_fingerprint`` or computed."""
    cost_key = spec.cost_fingerprint()
    if cache is not None:
        document = cache.get(COST_KIND, cost_key)
        if document is not None:
            bundle = _bundle_from_document(document)
            if bundle is not None:
                return bundle

    bundle = compare_methods(spec)
    if cache is not None:
        cache.put(COST_KIND, cost_key, _bundle_to_document(bundle))
    return bundle


def execute_spec(spec: RunSpec, cache: Optional[ArtifactCache] = None) -> RunResult:
    """Execute one spec, consulting and feeding ``cache`` when given.

    A batch group of one (:func:`execute_spec_batch`).
    """
    return execute_spec_batch([spec], cache)[0]


def execute_spec_batch(
    specs: Sequence[RunSpec], cache: Optional[ArtifactCache] = None
) -> List[RunResult]:
    """Execute one batch group of specs, one grid per design variant.

    ``specs`` must be a :func:`_plan_batches` group: specs sharing one
    :func:`_batch_key`, else :class:`~repro.errors.PlanError` names the
    first field that differs.  Cached results are served per spec; only
    the misses run, batched.  The returned records — and the documents
    written to ``cache`` — are byte-identical to executing each spec
    alone.  Cached documents are never trusted: any entry that fails to
    deserialize (corrupt, stale schema version, missing fields) or holds
    the record of another spec is treated as a miss and recomputed (its
    entry overwritten), not raised.
    """
    for spec in specs[1:]:
        for (name, mine), (_, theirs) in zip(_batch_key(specs[0]), _batch_key(spec)):
            if mine != theirs:
                raise PlanError(
                    f"the specs of one batch group must share {name}: "
                    f"{mine!r} != {theirs!r}"
                )
    results: List[Optional[RunResult]] = []
    for spec in specs:
        document = cache.get(RESULT_KIND, spec.fingerprint()) if cache is not None else None
        try:
            result = RunResult.from_dict(document) if document is not None else None
        except ReproError:
            result = None
        if result is not None and result.spec == spec:
            result.cache_hit = True
        else:
            result = None
        results.append(result)
    missing = [index for index, result in enumerate(results) if result is None]
    if missing:
        todo = [specs[index] for index in missing]
        bundle = _resolve_costs(todo[0], cache)
        if todo[0].injection_scale is None:  # a group of cost-only specs
            simulations: List[Optional[Dict[str, Any]]] = [None] * len(todo)
        else:
            simulations = _simulate_specs(todo, bundle.designs)
        for index, spec, simulation in zip(missing, todo, simulations):
            result = RunResult(spec=spec, simulation=simulation, **bundle.scalars)
            if cache is not None:
                cache.put(RESULT_KIND, spec.fingerprint(), result.to_dict())
            results[index] = result
    return results


def _simulate_specs(
    specs: Sequence[RunSpec], designs: Dict[str, NocDesign]
) -> List[Dict[str, Any]]:
    """Wormhole-simulate the bundle's designs at each spec's load point.

    The one function that simulates specs; returns each spec's record
    ``simulation`` section, in order.  Each spec becomes one
    :class:`~repro.simulation.simulator.SimulationConfig` (its fault
    request resolved once), and the three design variants run those same
    configs.  The specs (a :func:`_plan_batches` group, sharing
    ``sim_cycles``, ``buffer_depth`` and ``sim_engine``, or a single spec)
    run as one :func:`~repro.analysis.performance.measure_load_grid` call
    per design variant, fault specs included; it is looked up on the
    module at call time and gets ``max_cycles`` as a keyword.  Repeated
    executions of one spec are reproducible; deadlocks
    — expected for the unprotected variant under pressure — are recorded
    in the metrics, never raised.
    """
    from repro.analysis import performance  # local: lazy sim import
    from repro.simulation.fault_models import build_fault_schedule  # local: lazy sim import
    from repro.simulation.simulator import SimulationConfig  # local: lazy sim import

    # Each fault request (explicit document or fault-model generator) is
    # resolved against the unprotected design: the protected variants only
    # ever *add* channels on the same physical links, so a schedule drawn
    # here targets links that exist in every variant — all three degrade
    # under identical faults.  The cascade model also reads the unprotected
    # design's link loads, which every variant shares.
    configs = [
        SimulationConfig(
            injection_scale=spec.injection_scale,
            buffer_depth=spec.buffer_depth,
            seed=spec.seed,
            traffic_scenario=spec.traffic_scenario,
            scenario_params=dict(spec.scenario_params),
            fault_schedule=build_fault_schedule(
                designs["unprotected"],
                fault_model=spec.fault_model,
                fault_params=spec.fault_params,
                fault_schedule=spec.fault_schedule,
                seed=spec.seed,
            ),
            fault_recovery=spec.fault_recovery,
        )
        for spec in specs
    ]
    first = specs[0]
    grids = {
        variant: performance.measure_load_grid(
            designs[variant],
            configs,
            max_cycles=first.sim_cycles,
            sim_engine=first.sim_engine,
        )
        for variant in VARIANTS
    }
    documents = []
    for lane, (spec, config) in enumerate(zip(specs, configs)):
        simulation = {
            "engine": spec.sim_engine,
            "traffic_scenario": spec.traffic_scenario,
            "injection_scale": spec.injection_scale,
            "sim_cycles": spec.sim_cycles,
            "buffer_depth": spec.buffer_depth,
            "seed": spec.seed,
            "variants": {variant: grids[variant][lane] for variant in VARIANTS},
        }
        if spec.scenario_params:
            simulation["scenario_params"] = dict(spec.scenario_params)
        if spec.fault_schedule is not None:
            simulation["fault_schedule"] = dict(spec.fault_schedule)
        if spec.fault_model is not None:
            simulation["fault_model"] = spec.fault_model
            if spec.fault_params:
                simulation["fault_params"] = dict(spec.fault_params)
        if config.fault_schedule is not None:
            simulation["fault_recovery"] = spec.fault_recovery
        documents.append(simulation)
    return documents


# ----------------------------------------------------------------------
# Batch planning
# ----------------------------------------------------------------------


def _batch_key(spec: RunSpec) -> Tuple[Tuple[str, Any], ...]:
    """What the specs of one batch group share, as ``(field, value)`` pairs.

    One cost bundle (so one decode and one set of variant designs), one
    run length and buffer depth, one engine (every lane runs on the engine
    its record names), and cost-only or simulating.  Everything else — load,
    seed, scenario, fault schedule or model, recovery policy — varies per
    lane.
    """
    return (
        ("cost_fingerprint", spec.cost_fingerprint()),
        ("cost_only", spec.injection_scale is None),
        ("sim_cycles", spec.sim_cycles),
        ("buffer_depth", spec.buffer_depth),
        ("sim_engine", spec.sim_engine),
    )


def _plan_batches(specs: Sequence[RunSpec], workers: int = 1) -> List[List[int]]:
    """Group specs by :func:`_batch_key` into index lists covering every spec once.

    Each group then splits into at most ``workers`` contiguous chunks of
    near-equal size, so a parallel run still fans one grid out.
    Deterministic: groups appear in first-member order, their chunks in
    order, members in plan order.
    """
    keyed: Dict[Any, List[int]] = {}
    for index, spec in enumerate(specs):
        keyed.setdefault(_batch_key(spec), []).append(index)
    batches: List[List[int]] = []
    for group in keyed.values():
        chunks = min(workers, len(group))
        size, extra = divmod(len(group), chunks)
        start = 0
        for chunk in range(chunks):
            end = start + size + (chunk < extra)
            batches.append(group[start:end])
            start = end
    return batches


def _resolve_costs_task(task: Tuple[Dict[str, Any], str]) -> None:
    """One :func:`parallel_map` task: resolve a spec's cost bundle into the cache."""
    spec_dict, cache_dir = task
    _resolve_costs(RunSpec.from_dict(spec_dict), ArtifactCache(cache_dir))


def _run_batch_task(task: Tuple[List[Dict[str, Any]], Optional[str]]) -> List[RunResult]:
    """One :func:`parallel_map` task: a batch of spec dictionaries + cache directory.

    Module-level so :func:`parallel_map` can pickle it; only the small spec
    dictionaries travel to a worker, never a design or traffic object.
    """
    spec_dicts, cache_dir = task
    specs = [RunSpec.from_dict(data) for data in spec_dicts]
    cache = ArtifactCache(cache_dir) if cache_dir else None
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

    def _resolve_shared_bundles(self, specs: Sequence[RunSpec], batches: List[List[int]]) -> None:
        """Resolve into the cache, once, every cost bundle two or more batches read.

        Such batches (the chunks of one split group, or groups differing
        only in run length, buffer depth or engine) would each miss the
        cache in their own worker, run synthesis and removal and write the
        bundle, and their records would carry different
        ``removal_runtime_s`` values.  One :func:`parallel_map` task per
        distinct :meth:`RunSpec.cost_fingerprint` resolves it first, so
        every batch reads the one cached bundle.
        """
        readers: Dict[str, List[RunSpec]] = {}
        for batch in batches:
            spec = specs[batch[0]]
            readers.setdefault(spec.cost_fingerprint(), []).append(spec)
        parallel_map(
            _resolve_costs_task,
            [
                (group[0].to_dict(), self.cache_dir)
                for key, group in readers.items()
                if len(group) > 1 and not self.cache.has(COST_KIND, key)
            ],
            jobs=self.jobs,
        )

    def run(self, plan: ExperimentPlan) -> PlanResult:
        """Execute every spec of ``plan`` (deduplicated) and return results.

        Specs sharing a :func:`_batch_key` execute as grids of lanes, a
        group split into at most one chunk per worker process.  Results
        come back in ``plan.all_specs()`` order regardless of grouping.

        Before a parallel run fans out, every cost bundle that two or more
        batches read is resolved once into the cache
        (:meth:`_resolve_shared_bundles`); without a cache directory the
        batches cannot share a bundle, and each resolves its own.
        """
        specs = plan.all_specs()
        workers = resolve_jobs(self.jobs)
        batches = _plan_batches(specs, workers)
        if self.cache is not None and workers > 1:
            self._resolve_shared_bundles(specs, batches)
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


#: Record fields that depend on the host, not the spec: left out of an audit.
_HOST_FIELDS = ("removal_runtime_s", "attempts")


def _filed_under_its_spec(key: str, document: Any) -> bool:
    """True when ``document`` holds a spec whose current fingerprint is ``key``."""
    if not isinstance(document, dict):
        return False
    try:
        return RunSpec.from_dict(document.get("spec")).fingerprint() == key
    except ReproError:
        return False


@knobs("cache audit", PlanError, sample=at_least(1))
def audit_cache(
    cache: ArtifactCache, *, sample: int
) -> Tuple[Dict[str, Optional[str]], int]:
    """Re-execute a seeded sample of cached records and diff them byte for byte.

    An entry of the ``result`` kind whose spec does not fingerprint to its
    own key is orphaned: a stage version bump moved its spec's address
    (or the entry is unreadable), so it is counted apart, not re-executed.
    Draws ``sample`` of the other entries (all when fewer) with
    ``random.Random(0)`` over the sorted entry paths, re-executes each
    entry's spec without a cache and compares the fresh ``to_dict()`` JSON
    with the cached document's, ``removal_runtime_s`` and ``attempts``
    aside.  Returns the map from each drawn fingerprint, in draw order, to
    the first key whose value differs (``None`` when the record holds),
    and the number of orphaned entries.
    """
    keys = cache.keys(RESULT_KIND)
    current = [key for key in keys if _filed_under_its_spec(key, cache.get(RESULT_KIND, key))]
    audited: Dict[str, Optional[str]] = {}
    for key in random.Random(0).sample(current, min(sample, len(current))):
        cached = cache.get(RESULT_KIND, key)
        fresh = execute_spec(RunSpec.from_dict(cached["spec"])).to_dict()
        for document in (cached, fresh):
            for name in _HOST_FIELDS:
                document.pop(name, None)
        audited[key] = None
        if json.dumps(cached) != json.dumps(fresh):
            audited[key] = next(
                (name for name in dict.fromkeys([*fresh, *cached])
                 if json.dumps(cached.get(name)) != json.dumps(fresh.get(name))),
                "(key order)",
            )
    return audited, len(keys) - len(current)


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
