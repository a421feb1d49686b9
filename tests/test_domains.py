"""Generated boundary suite: every declared knob, fed its domain's edge values.

The cases come from the declarations themselves (:mod:`repro.domains`):
the ``domains`` of the dataclass owners (``RunSpec``, ``SynthesisConfig``,
``SimulationConfig``, ``FaultEvent``, ``ExperimentPlan``,
``ReportRequest``), of the plan, trace, trace-event, fault-event and
design documents (their sections and entries included) and, through the
registries, of every topology family, fault model, traffic
scenario and report type.  A new knob or registry entry is covered
without editing this file.  Each value must either raise a
:class:`~repro.errors.ReproError` at once or be accepted and kept as
given: a field or family parameter keeps the value it was given (nothing
is clamped), a document is read, a generator call completes with a
schedule or a finite offered load and a report request builds its specs,
instead of failing with another exception.  A list knob is also fed
lists of one edge element each, and an accepted list must hold only
elements of its declared kind.  A document, family or report request that
lacks a required key fails with a typed error naming it.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.api.registry import fault_models, topology_families, traffic_scenarios
from repro.api.reports import report_types
from repro.api.spec import ExperimentPlan, ReportRequest, RunSpec, _PlanDocument
from repro.domains import Interval
from repro.errors import PlanError, ReproError, SimulationError
from repro.model import serialization
from repro.simulation import events
from repro.simulation.events import EventSchedule, FaultEvent
from repro.simulation.simulator import SimulationConfig, make_traffic_generator
from repro.simulation.trace import _TraceDocument, _TraceEvent, validate_trace
from repro.synthesis.builder import SynthesisConfig

#: Knobs whose work grows with their value whatever the run length
#: (``trace.trace_cycles`` synthesizes that many cycles of traffic,
#: ``mtbf.horizon`` renews every link up to it), so they skip ``2**63``.
SIZE_SCALING = {"trace_cycles", "horizon"}

#: The values every knob is fed besides its bounds and their neighbours.
EDGE_VALUES = [math.nan, math.inf, -math.inf, -1, 0, 2.5, True, "x", None]

#: What every list knob is also fed: a list holding one edge element each.
LIST_EDGE_VALUES = [[None], [math.nan], [True], [""], [2.5]]

#: The required arguments each dataclass owner is built with.
DATACLASS_OWNERS = {
    RunSpec: {"benchmark": "D26_media", "switch_count": 8},
    SynthesisConfig: {"n_switches": 4},
    SimulationConfig: {},
    FaultEvent: {"cycle": 0, "action": "fail_router", "target": ("sw0",)},
    ExperimentPlan: {},
    ReportRequest: {"type": "availability"},
}


#: The required parameters of the report types that have any.
REPORT_REQUIRED = {"scale": {"family": "ring"}}


def _read_trace_event(event):
    return validate_trace({"cycles": 5, "events": [event]})


def _read_fault_link(link):
    return FaultEvent.from_dict({"cycle": 0, "action": "fail_link", "link": link})


#: A minimal valid design document: one link, one flow routed over it.
DESIGN = {
    "topology": {"switches": ["A", "B"], "links": [{"src": "A", "dst": "B"}]},
    "traffic": {"cores": ["a", "b"], "flows": [{"name": "f0", "src": "a", "dst": "b"}]},
    "core_map": {"a": "A", "b": "B"},
    "routes": {"f0": [{"src": "A", "dst": "B"}]},
}


def _design_reader(section, key=None):
    """Read ``DESIGN`` with its ``section`` (or the one entry of its list
    ``key``) replaced."""

    def read(value):
        if key is not None:
            value = {**DESIGN[section], key: [value]}
        return serialization.design_from_dict({**DESIGN, section: value})

    return read


#: Each document's field list, the entry point that reads such a document
#: and a minimal valid one.
DOCUMENT_OWNERS = {
    "plan": (
        _PlanDocument,
        ExperimentPlan.from_dict,
        {"runs": [{"benchmark": "D26_media", "switch_count": 8}]},
    ),
    "run-spec": (RunSpec, RunSpec.from_dict, {"benchmark": "D26_media", "switch_count": 8}),
    "trace": (_TraceDocument, validate_trace, {"cycles": 5}),
    "trace-event": (_TraceEvent, _read_trace_event, {"cycle": 0, "flow": "f0"}),
    "link-event": (
        events._LinkEventDocument,
        FaultEvent.from_dict,
        {"cycle": 0, "action": "fail_link", "link": {"src": "a", "dst": "b"}},
    ),
    "fault-link": (events._LinkDocument, _read_fault_link, {"src": "a", "dst": "b"}),
    "router-event": (
        events._RouterEventDocument,
        FaultEvent.from_dict,
        {"cycle": 0, "action": "fail_router", "switch": "sw0"},
    ),
    "design": (serialization._DesignDocument, serialization.design_from_dict, DESIGN),
    "design-topology": (
        serialization._TopologySection, _design_reader("topology"), DESIGN["topology"]
    ),
    "design-link": (
        serialization._LinkEntry, _design_reader("topology", "links"), {"src": "A", "dst": "B"}
    ),
    "design-traffic": (
        serialization._TrafficSection, _design_reader("traffic"), DESIGN["traffic"]
    ),
    "design-flow": (
        serialization._FlowEntry,
        _design_reader("traffic", "flows"),
        {"name": "f0", "src": "a", "dst": "b"},
    ),
    "design-channel": (
        serialization._ChannelEntry,
        lambda channel: serialization.design_from_dict({**DESIGN, "routes": {"f0": [channel]}}),
        {"src": "A", "dst": "B"},
    ),
}


def boundary_values(domains, name):
    """The edge values, each finite bound with its neighbours, each choice and,
    for a list knob, the list edge values."""
    knob, bound = domains.knobs[name], domains.bounds.get(name)
    values = EDGE_VALUES + ([] if name in SIZE_SCALING else [2**63])
    if list in knob.types:
        values += LIST_EDGE_VALUES
    if isinstance(bound, Interval):
        for edge in (bound.low, bound.high):
            if math.isfinite(edge) and knob.finite:
                values += [math.nextafter(edge, -math.inf), edge, math.nextafter(edge, math.inf)]
            elif math.isfinite(edge):
                values += [edge - 1, edge, edge + 1]
    elif bound is not None:
        values += list(bound)
    return values


def assert_elements_allowed(domains, name, value):
    """An accepted list holds only elements of the knob's element kind
    (any element when it is ``List[Any]``)."""
    item = domains.knobs[name].item
    if not isinstance(value, list) or item is None:
        return
    for element in value:
        assert isinstance(element, item.types) and element != "", (name, value)
        assert bool in item.types or not isinstance(element, bool), (name, value)
        assert not isinstance(element, float) or math.isfinite(element), (name, value)


def _cases(owners):
    return [
        pytest.param(key, name, id=f"{key}-{name}")
        for key, domains in owners.items()
        for name in domains.knobs
    ]


def _generators(registry):
    return {name: registry.get(name).domains for name in registry.names()}


@pytest.mark.parametrize(
    "owner, name",
    [
        pytest.param(owner, name, id=f"{owner.__name__}-{name}")
        for owner in DATACLASS_OWNERS
        for name in owner.domains.knobs
    ],
)
def test_dataclass_field_raises_or_keeps_the_value(owner, name):
    default = {field.name: field.default for field in dataclasses.fields(owner)}.get(name)
    for value in boundary_values(owner.domains, name):
        try:
            made = owner(**{**DATACLASS_OWNERS[owner], name: value})
        except ReproError:
            continue
        # A field left at its default may resolve it (synthesis_backend).
        assert value == default or getattr(made, name) == value, (name, value)
        assert_elements_allowed(owner.domains, name, value)


@pytest.mark.parametrize(
    "document, name",
    [
        pytest.param(key, name, id=f"{key}-{name}")
        for key, (owner, _, _) in DOCUMENT_OWNERS.items()
        if owner is not RunSpec  # its fields are walked as a dataclass's
        for name in owner.domains.knobs
    ],
)
def test_document_field_raises_or_is_read(document, name):
    owner, read, valid = DOCUMENT_OWNERS[document]
    for value in boundary_values(owner.domains, name):
        try:
            read({**valid, name: value})
        except ReproError:
            continue
        assert_elements_allowed(owner.domains, name, value)


def _required_family_params(family):
    return {
        knob: family.domains.bounds[knob].low
        for knob, declared in family.domains.knobs.items()
        if declared.required
    }


def _missing_key_cases():
    cases = [
        pytest.param(owner.domains, read, valid, id=key)
        for key, (owner, read, valid) in DOCUMENT_OWNERS.items()
    ]
    for name in topology_families.names():
        family = topology_families.get(name)
        read = family.normalized_params
        cases.append(pytest.param(family.domains, read, _required_family_params(family), id=name))
    for name in report_types.names():
        report = report_types.get(name)
        cases.append(
            pytest.param(report.domains, report.specs, REPORT_REQUIRED.get(name, {}),
                         id=f"report-{name}")
        )
    return cases


@pytest.mark.parametrize("domains, read, valid", _missing_key_cases())
def test_missing_required_key_is_a_typed_error(domains, read, valid):
    read(valid)
    for name, knob in domains.knobs.items():
        if knob.required:
            with pytest.raises(ReproError, match=f"missing required parameter '{name}'"):
                read({key: value for key, value in valid.items() if key != name})


@pytest.mark.parametrize("family_name, name", _cases(_generators(topology_families)))
def test_family_parameter_raises_or_keeps_the_value(family_name, name):
    family = topology_families.get(family_name)
    required = _required_family_params(family)
    for value in boundary_values(family.domains, name):
        try:
            params = family.normalized_params({**required, name: value})
        except ReproError:
            continue
        assert params[name] == value, (name, value)


@pytest.mark.parametrize("report_name, name", _cases(_generators(report_types)))
def test_report_parameter_raises_or_builds_specs(report_name, name):
    report = report_types.get(report_name)
    for value in boundary_values(report.domains, name):
        try:
            specs = report.specs({**REPORT_REQUIRED.get(report_name, {}), name: value})
        except ReproError:
            continue
        assert specs and all(isinstance(spec, RunSpec) for spec in specs), (name, value)
        assert_elements_allowed(report.domains, name, value)


@pytest.mark.parametrize("model, name", _cases(_generators(fault_models)))
def test_fault_model_parameter_raises_or_completes(simple_line_design, model, name):
    generator = fault_models.get(model)
    for value in boundary_values(generator.domains, name):
        try:
            schedule = generator(simple_line_design, **{name: value})
        except ReproError:
            continue
        assert isinstance(schedule, EventSchedule), (name, value)


@pytest.mark.parametrize("scenario, name", _cases(_generators(traffic_scenarios)))
def test_scenario_parameter_raises_or_offers_a_finite_load(simple_line_design, scenario, name):
    factory = traffic_scenarios.get(scenario)
    for value in boundary_values(factory.domains, name):
        try:
            generator = factory(simple_line_design, **{name: value})
        except ReproError:
            continue
        assert math.isfinite(generator.offered_flits_per_cycle), (name, value)


class TestMessages:
    """One format: ``"<owner>: <name> must be <domain>, got <value!r>"``."""

    def test_bound_violation_names_owner_knob_and_bound(self, simple_line_design):
        with pytest.raises(SimulationError) as caught:
            fault_models.get("mtbf")(simple_line_design, mtbf=math.nan)
        assert str(caught.value) == "fault model 'mtbf': mtbf must be positive and finite, got nan"

    def test_a_bool_is_never_a_number(self):
        with pytest.raises(PlanError, match="run spec: sim_cycles must be an integer, got True"):
            RunSpec(benchmark="D26_media", switch_count=8, sim_cycles=True)

    def test_unknown_keyword_names_the_valid_ones(self, simple_line_design):
        expected = r"'cascade': unknown parameter\(s\) radius; valid: seed, failures, "
        with pytest.raises(SimulationError, match=expected):
            fault_models.get("cascade")(simple_line_design, radius=1)

    def test_config_set_keys_are_unknown_scenario_params(self, simple_line_design):
        config = SimulationConfig(scenario_params={"seed": 3})
        expected = r"'flows': unknown parameter\(s\) seed; valid: none"
        with pytest.raises(SimulationError, match=expected):
            make_traffic_generator(simple_line_design, config)
