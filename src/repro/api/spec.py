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
closed-form size at ``family_params``.  Both fields are elided from the
serialized form when unset, so pre-family cache addresses hold.

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
``fault_schedule`` are mutually exclusive; all three fields are elided
from the serialized form when left at their defaults, so pre-existing
cache addresses hold.

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
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from repro.errors import PlanError

#: Version tag baked into plan documents and content-address hashes; bump on
#: any change that alters the meaning of a serialized spec.
PLAN_FORMAT_VERSION = 1

#: Every :class:`RunSpec` field, in serialization order.
SPEC_FIELDS = (
    "benchmark",
    "switch_count",
    "seed",
    "engine",
    "ordering_strategy",
    "synthesis_backend",
    "routing_engine",
    "synthesis",
    "topology_family",
    "family_params",
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

#: The grid axes of a run entry, each as (singular, plural) keys: the
#: only fields an entry may give as a list.
_GRID_AXES = (
    ("benchmark", "benchmarks"),
    ("switch_count", "switch_counts"),
    ("seed", "seeds"),
    ("injection_scale", "injection_scales"),
)

#: The RunSpec fields a run entry or a report request copies unchanged
#: into every spec it expands into: all but the grid axes.
PASS_THROUGH_FIELDS = tuple(
    name for name in SPEC_FIELDS if name not in {singular for singular, _ in _GRID_AXES}
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


def _check_synthesis_keys(synthesis: Mapping[str, Any]) -> None:
    """Reject ``synthesis`` keys that are not ``SynthesisConfig`` tuning knobs."""
    from repro.synthesis.builder import SynthesisConfig  # local: keep this module light

    knobs = [f.name for f in fields(SynthesisConfig) if f.name not in _SPEC_SET_SYNTHESIS_KEYS]
    for key in sorted(synthesis):
        if key in _SPEC_SET_SYNTHESIS_KEYS:
            raise PlanError(
                f"synthesis override {key!r} is set by the spec itself; use the "
                f"spec's {_SPEC_SET_SYNTHESIS_KEYS[key]!r} field instead"
            )
        if key not in knobs:
            raise PlanError(f"unknown synthesis override {key!r}; valid: {', '.join(knobs)}")


def _canonical_hash(document: Mapping[str, Any]) -> str:
    """SHA-256 over the canonical JSON form of ``document``."""
    payload = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


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
        Elided from the serialized form when unset, so pre-existing cache
        addresses hold.
    family_params:
        Parameters of the topology family (e.g. ``{"k": 8}``); a
        ``"routing"`` entry overrides the family's default routing mode.
        Only meaningful with ``topology_family``; elided when empty.
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
        ``{"trace_cycles": 2000}`` for the ``trace`` scenario).  Elided
        from the serialized form when empty.
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
        (the ``availability`` report builds exactly that grid).  Elided
        from the serialized form when unset, so pre-existing cache
        addresses hold; mutually exclusive with ``fault_schedule``.
    fault_params:
        Keyword parameters of the fault model (e.g. ``{"radius": 2}``
        for ``spatial_burst``); a ``"seed"`` entry overrides the spec's.
        Only meaningful with ``fault_model``; elided when empty.
    fault_recovery:
        Name in :data:`repro.api.registry.recovery_policies` of the
        recovery policy repairing the route set after each fault batch
        (``removal``, ``reroute``, ``idle``, ``protection``).  Elided
        when left at the default ``"removal"`` (the PR 6 behaviour).
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

    def __post_init__(self):
        if not isinstance(self.benchmark, str) or not self.benchmark:
            raise PlanError(f"benchmark must be a non-empty string, got {self.benchmark!r}")
        if not isinstance(self.switch_count, int) or isinstance(self.switch_count, bool):
            raise PlanError(f"switch_count must be an integer, got {self.switch_count!r}")
        if self.switch_count < 1:
            raise PlanError(f"switch_count must be positive, got {self.switch_count}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise PlanError(f"seed must be an integer, got {self.seed!r}")
        for name in (
            "engine",
            "ordering_strategy",
            "routing_engine",
            "sim_engine",
            "traffic_scenario",
        ):
            value = getattr(self, name)
            if not isinstance(value, str) or not value:
                raise PlanError(f"{name} must be a non-empty string, got {value!r}")
        if not isinstance(self.synthesis, dict):
            raise PlanError(f"synthesis overrides must be a mapping, got {self.synthesis!r}")
        self.synthesis = dict(self.synthesis)
        _check_synthesis_keys(self.synthesis)
        if self.topology_family is not None:
            if not isinstance(self.topology_family, str) or not self.topology_family:
                raise PlanError(
                    f"topology_family must be a non-empty string or null, "
                    f"got {self.topology_family!r}"
                )
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
        for name in ("family_params", "scenario_params"):
            value = getattr(self, name)
            if not isinstance(value, dict):
                raise PlanError(f"{name} must be a mapping, got {value!r}")
            setattr(self, name, dict(value))
        if self.family_params and self.topology_family is None:
            raise PlanError(
                "family_params given without a topology_family to apply them to"
            )
        if self.injection_scale is not None:
            if isinstance(self.injection_scale, bool) or not isinstance(
                self.injection_scale, (int, float)
            ):
                raise PlanError(
                    f"injection_scale must be a number or null, got {self.injection_scale!r}"
                )
            if self.injection_scale <= 0:
                raise PlanError(
                    f"injection_scale must be positive, got {self.injection_scale}"
                )
            self.injection_scale = float(self.injection_scale)
        if not isinstance(self.sim_cycles, int) or isinstance(self.sim_cycles, bool):
            raise PlanError(f"sim_cycles must be an integer, got {self.sim_cycles!r}")
        if self.sim_cycles < 1:
            raise PlanError(f"sim_cycles must be positive, got {self.sim_cycles}")
        if not isinstance(self.buffer_depth, int) or isinstance(self.buffer_depth, bool):
            raise PlanError(f"buffer_depth must be an integer, got {self.buffer_depth!r}")
        if self.buffer_depth < 1:
            raise PlanError(f"buffer_depth must be at least 1, got {self.buffer_depth}")
        if self.fault_schedule is not None:
            if not isinstance(self.fault_schedule, Mapping):
                raise PlanError(
                    "fault_schedule must be a mapping with an 'events' list "
                    f"(or null), got {self.fault_schedule!r}"
                )
            if "random" in self.fault_schedule:
                raise PlanError(
                    "fault_schedule lists explicit 'events' only; request seeded "
                    'random failures with fault_model: "uniform" and the same '
                    "parameters as fault_params"
                )
            if "events" not in self.fault_schedule:
                raise PlanError("fault_schedule needs an 'events' list")
            self.fault_schedule = dict(self.fault_schedule)
        if self.fault_model is not None:
            if not isinstance(self.fault_model, str) or not self.fault_model:
                raise PlanError(
                    f"fault_model must be a non-empty string or null, "
                    f"got {self.fault_model!r}"
                )
            if self.fault_schedule is not None:
                raise PlanError(
                    "fault_model and fault_schedule are mutually exclusive ways "
                    "to request fault injection; set only one"
                )
        if not isinstance(self.fault_params, dict):
            raise PlanError(
                f"fault_params must be a mapping, got {self.fault_params!r}"
            )
        self.fault_params = dict(self.fault_params)
        if self.fault_params and self.fault_model is None:
            raise PlanError(
                "fault_params given without a fault_model to apply them to"
            )
        if not isinstance(self.fault_recovery, str) or not self.fault_recovery:
            raise PlanError(
                f"fault_recovery must be a non-empty string, got {self.fault_recovery!r}"
            )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (default-valued optional fields elided).

        The simulation-axis and topology-family fields are serialized (and
        therefore fingerprinted) only when they differ from their dataclass
        default, so every spec that predates those axes keeps the exact
        content address it had — warm artifact caches stay warm.
        """
        document = {
            "benchmark": self.benchmark,
            "switch_count": self.switch_count,
            "seed": self.seed,
            "engine": self.engine,
            "ordering_strategy": self.ordering_strategy,
            "synthesis_backend": self.synthesis_backend,
            "routing_engine": self.routing_engine,
            "synthesis": dict(self.synthesis),
        }
        for name, default in _ELIDED_FIELD_DEFAULTS:
            value = getattr(self, name)
            if value != default:
                document[name] = value
        return document

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec; unknown keys raise :class:`~repro.errors.PlanError`."""
        if not isinstance(data, Mapping):
            raise PlanError(f"run spec must be a mapping, got {type(data).__name__}")
        unknown = set(data) - set(SPEC_FIELDS)
        if unknown:
            raise PlanError(
                f"unknown run spec field(s): {', '.join(sorted(unknown))}; "
                f"valid fields: {', '.join(SPEC_FIELDS)}"
            )
        if "benchmark" not in data:
            raise PlanError("run spec is missing the required 'benchmark' field")
        if "switch_count" not in data:
            raise PlanError("run spec is missing the required 'switch_count' field")
        return cls(**dict(data))

    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Content address of the full spec — the result-cache key."""
        return _canonical_hash({"format": PLAN_FORMAT_VERSION, "spec": self.to_dict()})

    def _design_document(self) -> Dict[str, Any]:
        """The synthesis-relevant subset of the spec, as a canonical mapping.

        The routing engine *is* part of it: both built-ins produce
        identical designs, but the cache must never silently conflate a
        third-party engine with them.
        """
        return {
            "benchmark": self.benchmark,
            "switch_count": self.switch_count,
            "seed": self.seed,
            "synthesis_backend": self.synthesis_backend,
            "routing_engine": self.routing_engine,
            "synthesis": dict(self.synthesis),
            # Family fields join the key only when set, so cost bundles
            # cached before the topology-family axis keep their
            # addresses.
            **(
                {
                    "topology_family": self.topology_family,
                    "family_params": dict(self.family_params),
                }
                if self.topology_family is not None
                else {}
            ),
        }

    def cost_fingerprint(self) -> str:
        """Content address of everything the *cost* pipeline depends on.

        The cost side of a record — removal, ordering, power and area —
        depends only on the synthesized design plus the removal engine and
        ordering strategy; the simulation axis (``injection_scale``,
        ``traffic_scenario``, ``seed``-driven traffic, fault fields) never
        touches it.  Specs differing only along those axes — e.g. the load
        points of one latency sweep — share this key, so the artifact
        cache can serve one removal/ordering run to the whole sweep
        instead of re-running removal per point on a cold cache.
        """
        return _canonical_hash(
            {
                "format": PLAN_FORMAT_VERSION,
                "costs": {
                    **self._design_document(),
                    "engine": self.engine,
                    "ordering_strategy": self.ordering_strategy,
                },
            }
        )


#: The simulation-axis and topology-family fields with their dataclass
#: defaults, derived from the :class:`RunSpec` field definitions so the
#: to_dict elision can never drift from the actual defaults (a drift would
#: silently re-address every cached spec).
_SIM_AXIS_FIELDS = (
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
_FAMILY_AXIS_FIELDS = (
    "topology_family",
    "family_params",
)
_ELIDED_AXIS_FIELDS = _SIM_AXIS_FIELDS + _FAMILY_AXIS_FIELDS
_ELIDED_FIELD_DEFAULTS = tuple(
    (
        spec_field.name,
        spec_field.default
        if spec_field.default is not MISSING
        else spec_field.default_factory(),
    )
    for spec_field in fields(RunSpec)
    if spec_field.name in _ELIDED_AXIS_FIELDS
)

#: Fields deliberately left out of :meth:`RunSpec.fingerprint`.  Empty on
#: purpose: every field of this spec changes the result, so every field is
#: content-addressed.  A field that genuinely must not re-key the cache
#: (e.g. a pure progress-reporting knob) is elided by naming it here, which
#: is the explicit allowlist the ``fingerprint-completeness`` lint rule
#: checks — an un-listed, un-fingerprinted field fails ``noc-deadlock
#: lint``.
FINGERPRINT_ELIDED: tuple = ()


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

    def __post_init__(self):
        if not isinstance(self.type, str) or not self.type:
            raise PlanError(f"report type must be a non-empty string, got {self.type!r}")
        if not isinstance(self.params, dict):
            raise PlanError(f"report params must be a mapping, got {self.params!r}")
        self.params = dict(self.params)

    def to_dict(self) -> Union[str, Dict[str, Any]]:
        if not self.params:
            return self.type
        return {"type": self.type, **self.params}

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

@dataclass
class ExperimentPlan:
    """A named batch of :class:`RunSpec` points plus report requests."""

    name: str = "plan"
    specs: List[RunSpec] = field(default_factory=list)
    reports: List[ReportRequest] = field(default_factory=list)

    def __post_init__(self):
        if not isinstance(self.name, str) or not self.name:
            raise PlanError(f"plan name must be a non-empty string, got {self.name!r}")

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
        if not isinstance(data, Mapping):
            raise PlanError(f"plan must be a mapping, got {type(data).__name__}")
        version = data.get("format_version", PLAN_FORMAT_VERSION)
        if version != PLAN_FORMAT_VERSION:
            raise PlanError(
                f"unsupported plan format version {version} (expected {PLAN_FORMAT_VERSION})"
            )
        known = {"format_version", "name", "defaults", "runs", "reports"}
        unknown = set(data) - known
        if unknown:
            raise PlanError(f"unknown plan field(s): {', '.join(sorted(unknown))}")
        defaults = data.get("defaults", {})
        if not isinstance(defaults, Mapping):
            raise PlanError(f"plan defaults must be a mapping, got {defaults!r}")
        runs = data.get("runs", [])
        if not isinstance(runs, (list, tuple)):
            raise PlanError(f"plan runs must be a list, got {runs!r}")
        specs: List[RunSpec] = []
        for entry in runs:
            specs.extend(expand_run_entry(entry, defaults))
        reports_data = data.get("reports", [])
        if not isinstance(reports_data, (list, tuple)):
            raise PlanError(f"plan reports must be a list, got {reports_data!r}")
        reports = [ReportRequest.from_dict(entry) for entry in reports_data]
        if not specs and not reports:
            raise PlanError("plan has neither runs nor reports — nothing to execute")
        return cls(name=data.get("name", "plan"), specs=specs, reports=reports)

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
