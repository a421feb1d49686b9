"""Declarative experiment descriptions: :class:`RunSpec` and :class:`ExperimentPlan`.

A :class:`RunSpec` pins down everything one evaluation point needs —
benchmark, switch count, seed, synthesis tuning knobs, topology family,
removal engine and ordering strategy — as plain data.  Specs serialize
to/from JSON and hash to a stable content address
(:meth:`RunSpec.fingerprint`), which is what the artifact cache keys on.

An :class:`ExperimentPlan` is a named list of specs plus optional *report
requests* (figure/table formatters from :mod:`repro.api.reports`).  The
JSON form supports compact grids — ``benchmarks`` × ``switch_counts`` ×
``seeds`` lists expand into the cartesian product of specs — so the whole
figure set of the paper is a dozen lines of JSON (see ``plans/``).

Plan schema (``format_version`` 1)::

    {
      "format_version": 1,
      "name": "my-plan",
      "defaults": {"seed": 0, "engine": "rebuild"},
      "runs": [
        {"benchmark": "D26_media", "switch_counts": [5, 8, 11]},
        {"benchmarks": ["D36_4", "D36_8"], "switch_count": 14, "seeds": [0, 1]},
        {"benchmark": "D36_8", "switch_count": 14,
         "injection_scales": [0.5, 1.0, 2.0], "traffic_scenario": "hotspot"},
        {"benchmark": "D36_8", "switch_count": 14, "injection_scale": 1.0,
         "fault_model": "uniform",
         "fault_params": {"link_failures": 2, "start_cycle": 100,
                          "end_cycle": 800, "restore_after": 500}},
        {"benchmark": "D36_8", "switch_count": 14, "injection_scale": 1.0,
         "fault_model": "spatial_burst", "fault_params": {"radius": 2},
         "fault_recovery": "protection", "seeds": [0, 1, 2, 3]},
        {"benchmark": "uniform_c64_f2", "topology_family": "fat_tree",
         "family_params": {"k": 8}, "switch_count": 80,
         "injection_scale": 1.0, "traffic_scenario": "trace",
         "scenario_params": {"trace_cycles": 2000}}
      ],
      "reports": ["figure8", {"type": "figure9", "switch_counts": [10, 14]},
                  {"type": "availability", "benchmark": "D36_8"},
                  {"type": "scale", "family": "fat_tree",
                   "points": [{"k": 2}, {"k": 4}, {"k": 6}]}]
    }

A ``topology_family`` entry synthesizes through the named parameterized
generator (:data:`repro.api.registry.topology_families`) instead of the
application-specific pipeline; ``switch_count`` must equal the family's
closed-form size at ``family_params``.

Every run entry accepts the singular or plural form of ``benchmark``,
``switch_count``, ``seed`` and ``injection_scale`` plus any other
:class:`RunSpec` field; omitted fields fall back to ``defaults`` and then
to the RunSpec defaults.  Entries with an ``injection_scale`` additionally
run the wormhole simulation at that load point (see
:attr:`RunSpec.injection_scale`).

A ``fault_schedule`` (only meaningful on simulating entries) injects
link/router failures mid-run and records the resilience metrics —
recovery latency, in-flight flit loss, post-fault deadlock freedom — in
the result's ``simulation.variants[*].resilience`` section.  It is an
explicit event list::

    {"events": [{"cycle": 200, "action": "fail_link",
                 "link": {"src": "sw3", "dst": "sw5", "index": 0}},
                {"cycle": 700, "action": "restore_link",
                 "link": {"src": "sw3", "dst": "sw5", "index": 0}}]}

``fault_model`` names a seeded generator from
:data:`repro.api.registry.fault_models` instead (``uniform`` — uniformly
random link and router failures — ``spatial_burst``, ``cascade``,
``mtbf``); ``fault_params`` parameterizes it and the schedule derives
deterministically from the synthesized design and the spec's seed, so a
``seeds`` grid sweeps the model.
``fault_recovery`` picks the repair policy from
:data:`repro.api.registry.recovery_policies` (``removal`` — the default —
``reroute``, ``idle`` or ``protection``).  ``fault_model`` and
``fault_schedule`` are mutually exclusive.

Simulating specs batch, whatever their engine or fault axis: the
:class:`~repro.api.runner.Runner` groups the specs that share a
:meth:`RunSpec.cost_fingerprint` (same design, removal engine and
ordering strategy) plus ``sim_cycles``, ``buffer_depth`` and
``sim_engine``, turns each spec into one
:class:`~repro.simulation.simulator.SimulationConfig`, and runs each
group's grid — the points of a latency sweep, a scenario comparison, an
availability grid of fault specs — as one
:func:`~repro.perf.batch_engine.run_batch` call per design variant on the
engine the specs name (``sim_engine: "batched"`` names the compiled
engine).  It still produces one cached
:class:`~repro.api.result.RunResult` per spec (cache layout, fingerprints
and record schema are unchanged; batching is invisible except in wall
clock).

The canonical form and both content addresses follow from the dataclass
fields.  :meth:`RunSpec.to_dict` writes every field in field order: the
fields of ``_ALWAYS_WRITTEN`` whatever their value, every other field only
while it differs from its default, so a spec that leaves a newer axis at
its default keeps the address it had before that axis existed.
:meth:`RunSpec.fingerprint` hashes that document and
:meth:`RunSpec.cost_fingerprint` hashes it without
:data:`SIMULATION_FIELDS`.  A new field therefore keys the result and the
cost bundle unless it is named simulation-only: over-keying only loses
sharing, under-keying would serve a bundle computed for another design.

Both addresses also hash the semantics version of each pipeline stage
(:data:`STAGE_VERSIONS`): :meth:`RunSpec.fingerprint` all six,
:meth:`RunSpec.cost_fingerprint` all but ``simulation``.  **A change to
what a stage computes bumps that stage's version**, so no warm cache
serves a record or cost bundle the changed code would not write: a
simulation bump recomputes the records and keeps the cost bundles, any
other bump recomputes both.  Records hold the spec, not its address, so
a bump moves addresses but no record byte.
"""

from __future__ import annotations

import copy
import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.domains import POSITIVE, Domains, at_least
from repro.errors import PlanError

#: Version tag baked into plan documents and content-address hashes; bump on
#: any change that alters the meaning of a serialized spec.
PLAN_FORMAT_VERSION = 1

#: The semantics version of each pipeline stage, hashed into both content
#: addresses; bump a stage's entry when what it computes changes.
#: Removal 2: records carry the exact cycle structure of the unprotected
#: CDG, and ``initial_cycle_count`` reads -1 (not counted).
STAGE_VERSIONS = {
    "synthesis": 1,
    "routing": 1,
    "removal": 2,
    "ordering": 1,
    "estimation": 1,
    "simulation": 1,
}

#: The grid axes of a run entry, each as (singular, plural) keys: the
#: only fields an entry may give as a list.
_GRID_AXES = (
    ("benchmark", "benchmarks"),
    ("switch_count", "switch_counts"),
    ("seed", "seeds"),
    ("injection_scale", "injection_scales"),
)

#: ``SynthesisConfig`` arguments (plus ``seed``) that a spec sets through
#: its own fields, each mapped to that field.
_SPEC_SET_SYNTHESIS_KEYS = {
    "n_switches": "switch_count",
    "seed": "seed",
    "routing_engine": "routing_engine",
    "topology_family": "topology_family",
    "family_params": "family_params",
}


def _canonical_hash(document: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON form of ``document``."""
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


#: The :class:`RunSpec` fields :meth:`RunSpec.to_dict` writes whatever their
#: value; every other field is written only while it differs from its
#: default.
_ALWAYS_WRITTEN = (
    "benchmark",
    "switch_count",
    "seed",
    "engine",
    "ordering_strategy",
    "synthesis_backend",
    "routing_engine",
    "synthesis",
)

#: The :class:`RunSpec` fields only simulation reads: the ones
#: :meth:`RunSpec.cost_fingerprint` leaves out, so the load points of one
#: sweep share one cost bundle.
SIMULATION_FIELDS = (
    "sim_engine",
    "traffic_scenario",
    "scenario_params",
    "injection_scale",
    "sim_cycles",
    "buffer_depth",
    "fault_schedule",
    "fault_model",
    "fault_params",
    "fault_recovery",
)


@dataclass
class RunSpec:
    """One evaluation point of the paper's grid, as plain declarative data.

    Attributes
    ----------
    benchmark:
        Name in the benchmark registry (``repro.benchmarks.registry``).
    switch_count:
        Number of switches the topology is synthesized with.
    seed:
        Seed of the benchmark's traffic instance and of the simulation
        draws (synthesis itself is deterministic).
    engine:
        Removal engine name (``repro.api.registry.removal_engines``).
    ordering_strategy:
        Baseline class-assignment strategy
        (``repro.api.registry.ordering_strategies``).
    synthesis_backend:
        The synthesis path, which follows from ``topology_family``:
        ``"custom"`` (the application-specific pipeline) without one,
        ``"family"`` with one.  Not a choice: it stays in :meth:`to_dict`
        so fingerprints and records keep their bytes, and any other
        explicit value is a :class:`~repro.errors.PlanError`.
    routing_engine:
        Shortest-path routing engine used during synthesis
        (``repro.api.registry.routing_engines``).
    synthesis:
        Tuning knobs of :class:`repro.synthesis.builder.SynthesisConfig`
        (``extra_link_fraction``, ``max_switch_degree``, ``routing``,
        ``balance_slack``, ``congestion_factor``).  An unknown key, or one
        the spec sets through its own fields (``n_switches``, ``seed``,
        ``routing_engine``, ``topology_family``, ``family_params``), is a
        :class:`~repro.errors.PlanError` that names the field to use.
    topology_family:
        Optional name in :data:`repro.api.registry.topology_families`
        (``fat_tree``, ``clos``/``vl2``, ``torus``, ``dragonfly``, ...).
        When set, the topology comes from that parameterized generator
        (``synthesis_backend`` reads ``"family"``) and ``switch_count``
        must equal the family's closed-form size at ``family_params``.
    family_params:
        Parameters of the topology family (e.g. ``{"k": 8}``); a
        ``"routing"`` entry overrides the family's default routing mode.
        Only meaningful with ``topology_family``.
    sim_engine:
        Wormhole simulation engine
        (``repro.api.registry.simulation_engines``); only exercised when
        ``injection_scale`` requests a simulation.
    traffic_scenario:
        Traffic-scenario generator for the simulation
        (``repro.api.registry.traffic_scenarios``).
    scenario_params:
        Extra keyword arguments for the scenario's generator factory (e.g.
        ``{"factor": 8.0}`` for ``hotspot``, or ``{"trace": {...}}`` /
        ``{"trace_cycles": 2000}`` for the ``trace`` scenario).
    injection_scale:
        The load point: when set, the spec additionally simulates the
        comparison's designs at this injection scale and records the
        latency/throughput metrics in
        :attr:`repro.api.result.RunResult.simulation`.  ``None`` (the
        default) skips simulation entirely.
    sim_cycles:
        Injection cycles per simulation run.
    buffer_depth:
        Flit capacity of every VC input buffer during simulation.
    fault_schedule:
        Optional explicit ``{"events": [...]}`` fault schedule for the
        simulation (see
        :meth:`repro.simulation.events.EventSchedule.from_spec`; seeded
        random failures are ``fault_model: "uniform"``).  Only meaningful
        together with ``injection_scale``; mutually exclusive with
        ``fault_model``.
    fault_model:
        Optional name in :data:`repro.api.registry.fault_models` of a
        correlated fault-schedule generator (``uniform``,
        ``spatial_burst``, ``cascade``, ``mtbf``).  The schedule is
        generated deterministically against the *synthesized* design
        with the spec's seed, so one spec per seed sweeps a fault model
        (the ``availability`` report builds exactly that grid).
        Mutually exclusive with ``fault_schedule``.
    fault_params:
        Keyword parameters of the fault model (e.g. ``{"radius": 2}``
        for ``spatial_burst``); a ``"seed"`` entry overrides the spec's.
        Only meaningful with ``fault_model``.
    fault_recovery:
        Name in :data:`repro.api.registry.recovery_policies` of the
        recovery policy repairing the route set after each fault batch
        (``removal``, the default, ``reroute``, ``idle``,
        ``protection``).
    """

    benchmark: str
    switch_count: int
    seed: int = 0
    engine: str = "context"
    ordering_strategy: str = "hop_index"
    synthesis_backend: Optional[str] = None
    routing_engine: str = "indexed"
    synthesis: Dict[str, Any] = field(default_factory=dict)
    topology_family: Optional[str] = None
    family_params: Dict[str, Any] = field(default_factory=dict)
    sim_engine: str = "compiled"
    traffic_scenario: str = "flows"
    scenario_params: Dict[str, Any] = field(default_factory=dict)
    injection_scale: Optional[float] = None
    sim_cycles: int = 3000
    buffer_depth: int = 4
    fault_schedule: Optional[Dict[str, Any]] = None
    fault_model: Optional[str] = None
    fault_params: Dict[str, Any] = field(default_factory=dict)
    fault_recovery: str = "removal"

    #: The fields' bounds; each field's kind is its annotation (:mod:`repro.domains`).
    domains = Domains("run spec", PlanError, switch_count=at_least(1), injection_scale=POSITIVE,
                      sim_cycles=at_least(1), buffer_depth=at_least(1))

    def __post_init__(self):
        from repro.synthesis.builder import SynthesisConfig  # local: keep this module light

        self.domains.check(self.__dict__)
        for key in sorted(self.synthesis):
            if key in _SPEC_SET_SYNTHESIS_KEYS:
                raise PlanError(
                    f"synthesis override {key!r} is set by the spec itself; use the "
                    f"spec's {_SPEC_SET_SYNTHESIS_KEYS[key]!r} field instead"
                )
        SynthesisConfig.domains.check(
            self.synthesis, label="synthesis", error=PlanError, exclude=_SPEC_SET_SYNTHESIS_KEYS
        )
        # Deep copies: no nested list or dict is shared with the caller.
        for name in ("synthesis", "family_params", "scenario_params", "fault_schedule",
                     "fault_params"):
            setattr(self, name, copy.deepcopy(getattr(self, name)))
        backend = "custom" if self.topology_family is None else "family"
        if self.synthesis_backend is None:
            self.synthesis_backend = backend
        elif self.synthesis_backend != backend:
            hint = (
                '; a regular mesh is topology_family: "mesh" with family_params '
                '{"rows": R, "cols": C}'
                if self.synthesis_backend == "mesh"
                else ""
            )
            raise PlanError(
                f"synthesis_backend follows topology_family: it is {backend!r} "
                f"{'with' if self.topology_family else 'without'} a topology_family, "
                f"not {self.synthesis_backend!r}{hint}"
            )
        if self.family_params and self.topology_family is None:
            raise PlanError(
                "family_params given without a topology_family to apply them to"
            )
        if self.injection_scale is not None:
            self.injection_scale = float(self.injection_scale)
        if self.fault_schedule is not None:
            if "random" in self.fault_schedule:
                raise PlanError(
                    "fault_schedule lists explicit 'events' only; request seeded "
                    'random failures with fault_model: "uniform" and the same '
                    "parameters as fault_params"
                )
            if "events" not in self.fault_schedule:
                raise PlanError("fault_schedule needs an 'events' list")
            if self.fault_model is not None:
                raise PlanError(
                    "fault_model and fault_schedule are mutually exclusive ways "
                    "to request fault injection; set only one"
                )
        if self.fault_params and self.fault_model is None:
            raise PlanError(
                "fault_params given without a fault_model to apply them to"
            )

    # ------------------------------------------------------------------
    def _document(self, names: Iterable[str]) -> Dict[str, Any]:
        """The fields ``names`` in order, defaults elided outside ``_ALWAYS_WRITTEN``."""
        document = {}
        for name in names:
            value = getattr(self, name)
            if name in _ALWAYS_WRITTEN or value != _DEFAULTS[name]:
                document[name] = value
        return document

    def to_dict(self) -> Dict[str, Any]:
        """The canonical JSON-serializable form, sharing no mapping with the spec.

        Every field in field order; a field outside ``_ALWAYS_WRITTEN`` only
        while it differs from its default, which :meth:`from_dict` restores.
        """
        return copy.deepcopy(self._document(SPEC_FIELDS))

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec; unknown or missing keys raise :class:`~repro.errors.PlanError`."""
        cls.domains.check(data)
        return cls(**dict(data))

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content address of the full spec and every stage version — the result-cache key."""
        return _canonical_hash(
            {
                "format": PLAN_FORMAT_VERSION,
                "stages": STAGE_VERSIONS,
                "spec": self._document(SPEC_FIELDS),
            }
        )

    def cost_fingerprint(self) -> str:
        """Content address of everything the *cost* pipeline depends on.

        The cost side of a record — removal, ordering, power and area —
        depends on every field but :data:`SIMULATION_FIELDS`.  Specs
        differing only along those — e.g. the load points of one latency
        sweep — share this key, so the artifact cache can serve one
        removal/ordering run to the whole sweep instead of re-running
        removal per point on a cold cache.  It hashes every stage version
        but the simulation stage's.
        """
        stages = {name: version for name, version in STAGE_VERSIONS.items()
                  if name != "simulation"}
        return _canonical_hash(
            {
                "format": PLAN_FORMAT_VERSION,
                "stages": stages,
                "costs": self._document(_COST_FIELDS),
            }
        )


#: Every :class:`RunSpec` field, in serialization order.
SPEC_FIELDS = tuple(spec_field.name for spec_field in fields(RunSpec))

#: Each field's default; a required field's is ``MISSING``, which no value
#: equals.
_DEFAULTS = {
    spec_field.name: spec_field.default
    if spec_field.default_factory is MISSING
    else spec_field.default_factory()
    for spec_field in fields(RunSpec)
}

#: The fields :meth:`RunSpec.cost_fingerprint` hashes.
_COST_FIELDS = tuple(name for name in SPEC_FIELDS if name not in SIMULATION_FIELDS)

#: The RunSpec fields a run entry or a report request copies unchanged
#: into every spec it expands into: all but the grid axes.
PASS_THROUGH_FIELDS = tuple(
    name for name in SPEC_FIELDS if name not in {singular for singular, _ in _GRID_AXES}
)


# ----------------------------------------------------------------------
# Grid expansion
# ----------------------------------------------------------------------

def _axis_values(entry: Mapping[str, Any], singular: str, plural: str, default):
    """Values of one grid axis, accepting the singular or the plural key."""
    if singular in entry and plural in entry:
        raise PlanError(f"run entry has both {singular!r} and {plural!r}")
    if plural in entry:
        values = entry[plural]
        if not isinstance(values, (list, tuple)) or not values:
            raise PlanError(f"{plural!r} must be a non-empty list, got {values!r}")
        return list(values)
    if singular in entry:
        return [entry[singular]]
    if default is None:
        raise PlanError(f"run entry is missing {singular!r} (or {plural!r})")
    return [default]


def expand_run_entry(
    entry: Mapping[str, Any], defaults: Optional[Mapping[str, Any]] = None
) -> List[RunSpec]:
    """Expand one plan run entry (a possibly-gridded mapping) into specs.

    ``benchmark(s)`` × ``switch_count(s)`` × ``seed(s)`` ×
    ``injection_scale(s)`` expand as a cartesian product in deterministic
    order (benchmarks outermost, injection scales innermost); the remaining
    fields are merged over ``defaults``.
    """
    if not isinstance(entry, Mapping):
        raise PlanError(f"run entry must be a mapping, got {type(entry).__name__}")
    merged = dict(defaults or {})
    # An entry that sets an axis (in either form) fully overrides that axis:
    # drop both of the axis's keys from the defaults so e.g. defaults
    # {"seed": 0} and an entry {"seeds": [0, 1]} do not conflict.
    for singular, plural in _GRID_AXES:
        if singular in entry or plural in entry:
            merged.pop(singular, None)
            merged.pop(plural, None)
    merged.update(entry)

    axis_keys = {key for pair in _GRID_AXES for key in pair}
    unknown = set(merged) - axis_keys - set(SPEC_FIELDS)
    if unknown:
        raise PlanError(
            f"unknown run entry field(s): {', '.join(sorted(unknown))}"
        )

    benchmarks = _axis_values(merged, "benchmark", "benchmarks", None)
    switch_counts = _axis_values(merged, "switch_count", "switch_counts", None)
    seeds = _axis_values(merged, "seed", "seeds", 0)
    if "injection_scale" in merged or "injection_scales" in merged:
        scales = _axis_values(merged, "injection_scale", "injection_scales", None)
    else:
        scales = [None]

    common = {key: merged[key] for key in PASS_THROUGH_FIELDS if key in merged}
    specs: List[RunSpec] = []
    for benchmark in benchmarks:
        for count in switch_counts:
            for seed in seeds:
                for scale in scales:
                    specs.append(
                        RunSpec(
                            benchmark=benchmark,
                            switch_count=count,
                            seed=seed,
                            injection_scale=scale,
                            **common,
                        )
                    )
    return specs


# ----------------------------------------------------------------------
# Report requests
# ----------------------------------------------------------------------

@dataclass
class ReportRequest:
    """A figure/table to render from a plan's results.

    ``type`` names an entry of :data:`repro.api.reports.report_types`;
    ``params`` are formatter parameters (e.g. ``switch_counts``, ``seed``).
    In plan JSON a bare string ``"figure8"`` is shorthand for
    ``{"type": "figure8"}``.
    """

    type: str
    params: Dict[str, Any] = field(default_factory=dict)
    domains = Domains("report request", PlanError)

    def __post_init__(self):
        self.domains.check(self.__dict__)
        # Deep copies, as RunSpec makes: no nested list or dict is shared
        # with the caller, in either direction.
        self.params = copy.deepcopy(dict(self.params))

    def to_dict(self) -> Union[str, Dict[str, Any]]:
        if not self.params:
            return self.type
        return {"type": self.type, **copy.deepcopy(self.params)}

    @classmethod
    def from_dict(cls, data: Union[str, Mapping[str, Any]]) -> "ReportRequest":
        if isinstance(data, str):
            return cls(type=data)
        if not isinstance(data, Mapping):
            raise PlanError(
                f"report request must be a string or mapping, got {type(data).__name__}"
            )
        if "type" not in data:
            raise PlanError("report request is missing the required 'type' field")
        params = {key: value for key, value in data.items() if key != "type"}
        return cls(type=data["type"], params=params)


# ----------------------------------------------------------------------
# Experiment plans
# ----------------------------------------------------------------------

class _PlanDocument:
    """A plan document's fields, each with its default (:mod:`repro.domains`)."""

    format_version: int = PLAN_FORMAT_VERSION
    name: str = "plan"
    defaults: Dict[str, Any] = {}
    runs: List[Any] = []
    reports: List[Any] = []
    domains = Domains("plan", PlanError)


@dataclass
class ExperimentPlan:
    """A named batch of :class:`RunSpec` points plus report requests."""

    name: str = "plan"
    specs: List[RunSpec] = field(default_factory=list)
    reports: List[ReportRequest] = field(default_factory=list)
    domains = Domains("plan", PlanError)

    def __post_init__(self):
        self.domains.check(self.__dict__)

    # ------------------------------------------------------------------
    def all_specs(self) -> List[RunSpec]:
        """Explicit specs plus every report's specs, deduplicated.

        Order is deterministic: explicit specs first, then report specs in
        request order, with later duplicates (same fingerprint) dropped —
        e.g. the Figure 10, area and overhead reports all share the same
        six 14-switch points, which are executed once.
        """
        from repro.api.reports import report_types  # local: avoid import cycle

        seen: Dict[str, RunSpec] = {}
        ordered: List[RunSpec] = []
        for spec in self.specs:
            key = spec.fingerprint()
            if key not in seen:
                seen[key] = spec
                ordered.append(spec)
        for request in self.reports:
            report = report_types.get(request.type)
            for spec in report.specs(request.params):
                key = spec.fingerprint()
                if key not in seen:
                    seen[key] = spec
                    ordered.append(spec)
        return ordered

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Normal-form document: grids already expanded into explicit runs."""
        return {
            "format_version": PLAN_FORMAT_VERSION,
            "name": self.name,
            "runs": [spec.to_dict() for spec in self.specs],
            "reports": [request.to_dict() for request in self.reports],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ExperimentPlan":
        document = _PlanDocument.domains.normalize(data)
        version = document["format_version"]
        if version != PLAN_FORMAT_VERSION:
            raise PlanError(
                f"unsupported plan format version {version} (expected {PLAN_FORMAT_VERSION})"
            )
        specs: List[RunSpec] = []
        for entry in document["runs"]:
            specs.extend(expand_run_entry(entry, document["defaults"]))
        reports = [ReportRequest.from_dict(entry) for entry in document["reports"]]
        if not specs and not reports:
            raise PlanError("plan has neither runs nor reports — nothing to execute")
        return cls(name=document["name"], specs=specs, reports=reports)

    # ------------------------------------------------------------------
    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ExperimentPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise PlanError(f"invalid plan JSON: {exc}") from exc
        return cls.from_dict(data)

    def save(self, path: Union[str, Path]) -> Path:
        path = Path(path)
        try:
            path.write_text(self.to_json() + "\n")
        except OSError as exc:
            raise PlanError(f"could not write plan to {path}: {exc}") from exc
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ExperimentPlan":
        path = Path(path)
        try:
            text = path.read_text()
        except OSError as exc:
            raise PlanError(f"could not read plan from {path}: {exc}") from exc
        return cls.from_json(text)

    # ------------------------------------------------------------------
    @classmethod
    def from_grid(
        cls,
        name: str,
        benchmarks: Union[str, Sequence[str]],
        switch_counts: Union[int, Sequence[int]],
        *,
        seeds: Union[int, Sequence[int]] = 0,
        reports: Iterable[Union[str, ReportRequest]] = (),
        **common: Any,
    ) -> "ExperimentPlan":
        """Programmatic grid constructor mirroring the JSON run entries."""
        entry: Dict[str, Any] = dict(common)
        entry["benchmarks"] = [benchmarks] if isinstance(benchmarks, str) else list(benchmarks)
        entry["switch_counts"] = (
            [switch_counts] if isinstance(switch_counts, int) else list(switch_counts)
        )
        entry["seeds"] = [seeds] if isinstance(seeds, int) else list(seeds)
        requests = [
            request if isinstance(request, ReportRequest) else ReportRequest(type=request)
            for request in reports
        ]
        return cls(name=name, specs=expand_run_entry(entry), reports=requests)
