"""Tests for RunSpec / ExperimentPlan serialization and grid expansion."""

import json

import pytest

from repro.api.spec import (
    ExperimentPlan,
    ReportRequest,
    RunSpec,
    expand_run_entry,
)
from repro.errors import PlanError


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
        with pytest.raises(PlanError, match="unknown run spec field"):
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
        base = RunSpec(benchmark="D26_media", switch_count=8)
        variants = [
            RunSpec(benchmark="D36_8", switch_count=8),
            RunSpec(benchmark="D26_media", switch_count=9),
            RunSpec(benchmark="D26_media", switch_count=8, seed=1),
            RunSpec(benchmark="D26_media", switch_count=8, engine="rebuild"),
            RunSpec(benchmark="D26_media", switch_count=8, ordering_strategy="layered"),
            RunSpec(benchmark="D26_media", switch_count=8, topology_family="ring"),
            RunSpec(benchmark="D26_media", switch_count=8, routing_engine="legacy"),
            RunSpec(benchmark="D26_media", switch_count=8, synthesis={"max_switch_degree": 3}),
        ]
        fingerprints = {spec.fingerprint() for spec in variants}
        assert base.fingerprint() not in fingerprints
        assert len(fingerprints) == len(variants)

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
        with pytest.raises(PlanError, match="unknown plan field"):
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
