"""Tests for RunSpec / ExperimentPlan serialization and grid expansion."""

import json

import pytest

from repro.api.spec import (
    SIMULATION_FIELDS,
    SPEC_FIELDS,
    ExperimentPlan,
    ReportRequest,
    RunSpec,
    expand_run_entry,
)
from repro.errors import PlanError

#: One off-default value per RunSpec field, in field order.  A field whose
#: value needs a partner field sets both.
FIELD_CASES = {
    "benchmark": {"benchmark": "D36_8"},
    "switch_count": {"switch_count": 9},
    "seed": {"seed": 1},
    "engine": {"engine": "rebuild"},
    "ordering_strategy": {"ordering_strategy": "layered"},
    "synthesis_backend": {"synthesis_backend": "family", "topology_family": "mesh"},
    "routing_engine": {"routing_engine": "legacy"},
    "synthesis": {"synthesis": {"max_switch_degree": 3}},
    "topology_family": {"topology_family": "ring"},
    "family_params": {"topology_family": "ring", "family_params": {"n_switches": 8}},
    "sim_engine": {"sim_engine": "batched"},
    "traffic_scenario": {"traffic_scenario": "hotspot"},
    "scenario_params": {"scenario_params": {"factor": 8.0}},
    "injection_scale": {"injection_scale": 0.5},
    "sim_cycles": {"sim_cycles": 100},
    "buffer_depth": {"buffer_depth": 2},
    "fault_schedule": {"fault_schedule": {"events": []}},
    "fault_model": {"fault_model": "uniform"},
    "fault_params": {"fault_model": "uniform", "fault_params": {"link_failures": 2}},
    "fault_recovery": {"fault_recovery": "idle"},
}

_LINK = {"src": "sw3", "dst": "sw5", "index": 0}

#: Specs with their (fingerprint, cost_fingerprint).  ``fault_model`` and
#: ``fault_schedule`` exclude each other, so the schedule has its own spec.
PINNED = {
    "topology-family": (
        RunSpec(
            benchmark="uniform_c64_f2",
            switch_count=80,
            topology_family="fat_tree",
            family_params={"k": 8},
        ),
        "7719257da8a2f0c16792b3978f961e24482e77a02298c23b10b576898b7e4719",
        "66c4ce5672a2d41c494263d592134e45311985c1029b0cc1127d6736d9821ffb",
    ),
    "fault-schedule": (
        RunSpec(
            benchmark="D36_8",
            switch_count=14,
            injection_scale=1.0,
            sim_cycles=500,
            fault_schedule={
                "events": [
                    {"cycle": 200, "action": "fail_link", "link": dict(_LINK)},
                    {"cycle": 400, "action": "restore_link", "link": dict(_LINK)},
                ]
            },
            fault_recovery="reroute",
        ),
        "ff585f3ff8858fe5d519a10accd1a2216da856f610b1d04f49a75b636057f260",
        "d30b55a1a011839f8e09b9f4a9fe1df8e554d3e385f39eaebb6323800cae912b",
    ),
    "all-axes": (
        RunSpec(
            benchmark="D36_8",
            switch_count=16,
            seed=3,
            engine="rebuild",
            ordering_strategy="layered",
            synthesis_backend="family",
            routing_engine="legacy",
            synthesis={"extra_link_fraction": 0.25},
            topology_family="mesh",
            family_params={"rows": 4, "cols": 4},
            sim_engine="batched",
            traffic_scenario="hotspot",
            scenario_params={"factor": 8.0},
            injection_scale=0.75,
            sim_cycles=400,
            buffer_depth=2,
            fault_model="spatial_burst",
            fault_params={"radius": 2},
            fault_recovery="idle",
        ),
        "060c156047895c8417df675c10cbe4dba2eb4b5ca83720177bf4060d725864cc",
        "452bd06222a8481485f59666a2e014dab9ce64cb86af5b7e1f4ba8abe8fe90b5",
    ),
}

class TestRunSpec:
    def test_round_trip_through_dict(self):
        spec = RunSpec(
            benchmark="D36_8",
            switch_count=14,
            seed=3,
            engine="rebuild",
            ordering_strategy="layered",
            synthesis={"extra_link_fraction": 0.25},
        )
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_defaults(self):
        spec = RunSpec(benchmark="D26_media", switch_count=8)
        assert spec.seed == 0
        assert spec.engine == "context"
        assert spec.ordering_strategy == "hop_index"
        assert spec.synthesis_backend == "custom"
        assert spec.routing_engine == "indexed"
        assert spec.synthesis == {}

    def test_unknown_field_rejected(self):
        with pytest.raises(PlanError, match="run spec: unknown parameter.*bogus"):
            RunSpec.from_dict({"benchmark": "D26_media", "switch_count": 8, "bogus": 1})

    def test_missing_required_fields_rejected(self):
        with pytest.raises(PlanError, match="benchmark"):
            RunSpec.from_dict({"switch_count": 8})
        with pytest.raises(PlanError, match="switch_count"):
            RunSpec.from_dict({"benchmark": "D26_media"})

    def test_bad_types_rejected(self):
        with pytest.raises(PlanError):
            RunSpec(benchmark="D26_media", switch_count="eight")
        with pytest.raises(PlanError):
            RunSpec(benchmark="D26_media", switch_count=0)
        with pytest.raises(PlanError):
            RunSpec(benchmark="", switch_count=8)
        with pytest.raises(PlanError):
            RunSpec(benchmark="D26_media", switch_count=8, synthesis="nope")

    def test_fingerprint_sensitive_to_every_field(self):
        required = {"benchmark": "D26_media", "switch_count": 8}
        base = RunSpec(**required)
        # One case per field, so a new field without a case fails here.
        assert tuple(FIELD_CASES) == SPEC_FIELDS
        fingerprints = {base.fingerprint()}
        for name, overrides in FIELD_CASES.items():
            spec = RunSpec(**{**required, **overrides})
            fingerprints.add(spec.fingerprint())
            moves_costs = spec.cost_fingerprint() != base.cost_fingerprint()
            assert moves_costs == (name not in SIMULATION_FIELDS), name
        # Every case moves the fingerprint, and no two cases collide.
        assert len(fingerprints) == len(FIELD_CASES) + 1

    @pytest.mark.parametrize("name", list(PINNED))
    def test_addresses_are_pinned(self, name):
        # Every cached record and cost bundle lives at these addresses; a
        # change here silently invalidates every user's artifact cache.
        spec, fingerprint, cost_fingerprint = PINNED[name]
        assert (spec.fingerprint(), spec.cost_fingerprint()) == (fingerprint, cost_fingerprint)
        assert RunSpec.from_dict(json.loads(json.dumps(spec.to_dict()))) == spec

    @pytest.mark.parametrize(
        "name", ["synthesis", "family_params", "scenario_params", "fault_params", "fault_schedule"]
    )
    def test_to_dict_shares_no_mapping_with_the_spec(self, name):
        spec = PINNED["fault-schedule" if name == "fault_schedule" else "all-axes"][0]
        before = (spec.to_dict(), spec.fingerprint(), spec.cost_fingerprint())
        document = spec.to_dict()
        document[name]["edited"] = 1
        if name == "fault_schedule":
            document[name]["events"].append({"cycle": 1})
        assert (spec.to_dict(), spec.fingerprint(), spec.cost_fingerprint()) == before

    @pytest.mark.parametrize(
        "name, value, edit",
        [
            pytest.param(
                "synthesis",
                {"extra_link_fraction": 0.25},
                lambda v: v.update(extra_link_fraction=0.5),
                id="synthesis",
            ),
            pytest.param(
                "family_params", {"rows": 4, "cols": 4}, lambda v: v.update(rows=8), id="family_params"
            ),
            pytest.param(
                "scenario_params",
                {"trace": {"cycles": 10, "events": [{"cycle": 0, "flow": "f0", "packets": 1}]}},
                lambda v: v["trace"]["events"].append({"cycle": 5, "flow": "f1", "packets": 1}),
                id="scenario_params",
            ),
            pytest.param(
                "fault_params", {"radius": 1}, lambda v: v.update(radius=2), id="fault_params"
            ),
            pytest.param(
                "fault_schedule",
                {"events": [{"cycle": 200, "action": "fail_link", "link": dict(_LINK)}]},
                lambda v: v["events"][0]["link"].update(dst="S9"),
                id="fault_schedule",
            ),
        ],
    )
    def test_spec_shares_no_mapping_with_its_inputs(self, name, value, edit):
        """Editing what a caller passed, at any depth, leaves both addresses."""
        fields = {"benchmark": "D36_8", "switch_count": 16, "injection_scale": 1.0, name: value}
        if name == "family_params":
            fields["topology_family"] = "mesh"
        if name == "fault_params":
            fields["fault_model"] = "spatial_burst"
        spec = RunSpec(**fields)
        before = (spec.fingerprint(), spec.cost_fingerprint())
        edit(value)
        assert (spec.fingerprint(), spec.cost_fingerprint()) == before

    @pytest.mark.parametrize(
        "key, field",
        [
            ("n_switches", "switch_count"),
            ("seed", "seed"),
            ("routing_engine", "routing_engine"),
            ("topology_family", "topology_family"),
            ("family_params", "family_params"),
        ],
    )
    def test_synthesis_key_set_by_the_spec_rejected(self, key, field):
        with pytest.raises(PlanError, match=f"'{key}' is set by the spec.*'{field}' field"):
            RunSpec(benchmark="D26_media", switch_count=8, synthesis={key: 1})

    @pytest.mark.parametrize(
        "backend, family, named",
        [
            ("mesh", None, 'topology_family: "mesh"'),
            ("warp", None, "it is 'custom' without a topology_family"),
            ("custom", "ring", "it is 'family' with a topology_family"),
        ],
    )
    def test_other_synthesis_backend_rejected(self, backend, family, named):
        with pytest.raises(PlanError, match=named):
            RunSpec(
                benchmark="D26_media",
                switch_count=8,
                synthesis_backend=backend,
                topology_family=family,
            )

    def test_cost_fingerprint_shared_across_simulation_axis(self):
        a = RunSpec(benchmark="D26_media", switch_count=8, injection_scale=0.5)
        b = RunSpec(
            benchmark="D26_media",
            switch_count=8,
            injection_scale=2.0,
            traffic_scenario="hotspot",
            fault_model="uniform",
        )
        assert a.cost_fingerprint() == b.cost_fingerprint()
        assert a.fingerprint() != b.fingerprint()
        # The removal engine and ordering strategy shape the bundle.
        c = RunSpec(
            benchmark="D26_media",
            switch_count=8,
            injection_scale=0.5,
            engine="rebuild",
            ordering_strategy="layered",
        )
        assert c.cost_fingerprint() != a.cost_fingerprint()

    def test_cost_fingerprint_sensitive_to_design_inputs(self):
        a = RunSpec(benchmark="D26_media", switch_count=8)
        b = RunSpec(benchmark="D26_media", switch_count=8, synthesis={"max_switch_degree": 5})
        assert a.cost_fingerprint() != b.cost_fingerprint()

    def test_routing_engine_round_trips_and_keys_the_design_cache(self):
        spec = RunSpec(benchmark="D26_media", switch_count=8, routing_engine="legacy")
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone.routing_engine == "legacy"
        assert clone.fingerprint() == spec.fingerprint()
        # A third-party engine must never share a cached design with the
        # built-ins, so the key of the cost bundle (which holds the
        # designs) includes the engine.
        default = RunSpec(benchmark="D26_media", switch_count=8)
        assert spec.cost_fingerprint() != default.cost_fingerprint()

    def test_routing_engine_expands_through_grid_entries(self):
        specs = expand_run_entry(
            {"benchmark": "D26_media", "switch_counts": [4, 6], "routing_engine": "legacy"}
        )
        assert [s.routing_engine for s in specs] == ["legacy", "legacy"]


class TestGridExpansion:
    def test_cartesian_product_order(self):
        specs = expand_run_entry(
            {
                "benchmarks": ["A1", "B2"],
                "switch_counts": [4, 6],
                "seeds": [0, 1],
            }
        )
        combos = [(s.benchmark, s.switch_count, s.seed) for s in specs]
        assert combos == [
            ("A1", 4, 0),
            ("A1", 4, 1),
            ("A1", 6, 0),
            ("A1", 6, 1),
            ("B2", 4, 0),
            ("B2", 4, 1),
            ("B2", 6, 0),
            ("B2", 6, 1),
        ]

    def test_defaults_merge_under_entry(self):
        specs = expand_run_entry(
            {"benchmark": "D26_media", "switch_count": 8},
            defaults={"engine": "rebuild", "seed": 5},
        )
        assert specs[0].engine == "rebuild"
        assert specs[0].seed == 5

    def test_plural_entry_key_overrides_singular_default(self):
        # The documented schema: defaults {"seed": 0} with a run entry
        # using "seeds" must not conflict — the entry wins the whole axis.
        specs = expand_run_entry(
            {"benchmark": "D26_media", "switch_count": 8, "seeds": [1, 2]},
            defaults={"seed": 0},
        )
        assert [s.seed for s in specs] == [1, 2]

    def test_singular_entry_key_overrides_plural_default(self):
        specs = expand_run_entry(
            {"benchmark": "D26_media", "switch_count": 8, "seed": 7},
            defaults={"seeds": [0, 1]},
        )
        assert [s.seed for s in specs] == [7]

    def test_docstring_example_plan_parses(self):
        document = {
            "format_version": 1,
            "name": "my-plan",
            "defaults": {"seed": 0, "engine": "rebuild"},
            "runs": [
                {"benchmark": "D26_media", "switch_counts": [5, 8, 11]},
                {"benchmarks": ["D36_4", "D36_8"], "switch_count": 14, "seeds": [0, 1]},
            ],
            "reports": ["figure8", {"type": "figure9", "switch_counts": [10, 14]}],
        }
        plan = ExperimentPlan.from_dict(document)
        assert len(plan.specs) == 3 + 4
        assert all(spec.engine == "rebuild" for spec in plan.specs)

    def test_entry_overrides_defaults(self):
        specs = expand_run_entry(
            {"benchmark": "D26_media", "switch_count": 8, "engine": "context"},
            defaults={"engine": "rebuild"},
        )
        assert specs[0].engine == "context"

    def test_singular_and_plural_conflict_rejected(self):
        with pytest.raises(PlanError, match="both"):
            expand_run_entry(
                {"benchmark": "A", "benchmarks": ["B"], "switch_count": 8}
            )

    def test_missing_benchmark_rejected(self):
        with pytest.raises(PlanError, match="benchmark"):
            expand_run_entry({"switch_count": 8})

    def test_unknown_entry_field_rejected(self):
        with pytest.raises(PlanError, match="unknown run entry field"):
            expand_run_entry({"benchmark": "A", "switch_count": 8, "typo": 1})


class TestReportRequest:
    def test_string_shorthand(self):
        request = ReportRequest.from_dict("figure8")
        assert request.type == "figure8"
        assert request.params == {}
        assert request.to_dict() == "figure8"

    def test_mapping_with_params(self):
        request = ReportRequest.from_dict({"type": "figure9", "switch_counts": [10, 14]})
        assert request.params == {"switch_counts": [10, 14]}
        assert request.to_dict() == {"type": "figure9", "switch_counts": [10, 14]}

    def test_missing_type_rejected(self):
        with pytest.raises(PlanError, match="type"):
            ReportRequest.from_dict({"switch_counts": [10]})

    def test_request_shares_no_params_with_its_caller(self):
        """Editing the input list or a ``to_dict()`` copy leaves the plan as built."""
        scales = [0.5, 1.0]
        request = ReportRequest(type="latency", params={"injection_scales": scales})
        plan = ExperimentPlan(reports=[request])
        assert len(plan.all_specs()) == 2
        scales.append(2.0)
        assert len(plan.all_specs()) == 2
        request.to_dict()["injection_scales"].append(4.0)
        assert len(plan.all_specs()) == 2
        assert request.params == {"injection_scales": [0.5, 1.0]}


class TestExperimentPlan:
    def test_json_round_trip(self):
        plan = ExperimentPlan.from_grid(
            "round-trip",
            ["D26_media", "D36_8"],
            [8, 14],
            reports=["figure8"],
        )
        clone = ExperimentPlan.from_json(plan.to_json())
        assert clone.name == plan.name
        assert clone.specs == plan.specs
        assert clone.reports == plan.reports

    def test_save_and_load(self, tmp_path):
        plan = ExperimentPlan.from_grid("disk", "D26_media", [8])
        path = plan.save(tmp_path / "plan.json")
        assert ExperimentPlan.load(path).specs == plan.specs

    def test_load_missing_file_is_plan_error(self, tmp_path):
        with pytest.raises(PlanError, match="could not read"):
            ExperimentPlan.load(tmp_path / "none.json")

    def test_invalid_json_is_plan_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(PlanError, match="invalid plan JSON"):
            ExperimentPlan.load(path)

    def test_unknown_plan_field_rejected(self):
        with pytest.raises(PlanError, match="plan: unknown parameter.*rnus"):
            ExperimentPlan.from_dict({"name": "x", "rnus": []})

    def test_unsupported_version_rejected(self):
        with pytest.raises(PlanError, match="format version"):
            ExperimentPlan.from_dict({"format_version": 99, "runs": []})

    def test_empty_plan_rejected(self):
        with pytest.raises(PlanError, match="nothing to execute"):
            ExperimentPlan.from_dict({"name": "empty"})

    def test_all_specs_deduplicates_by_fingerprint(self):
        document = {
            "name": "dedup",
            "runs": [
                {"benchmark": "D26_media", "switch_counts": [6, 9]},
                {"benchmark": "D26_media", "switch_count": 6},
            ],
            "reports": [{"type": "figure8", "switch_counts": [6, 12]}],
        }
        plan = ExperimentPlan.from_dict(document)
        specs = plan.all_specs()
        counts = [(s.benchmark, s.switch_count) for s in specs]
        # 6 and 9 from the runs (deduped), 12 added by the report.
        assert counts == [("D26_media", 6), ("D26_media", 9), ("D26_media", 12)]

    def test_reports_share_specs_across_types(self):
        plan = ExperimentPlan.from_dict(
            {"name": "shared", "reports": ["figure10", "area", "overhead"]}
        )
        # All three reports evaluate the same six benchmarks at 14 switches.
        assert len(plan.all_specs()) == 6
