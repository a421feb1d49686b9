"""The simulation axis of the experiment API: spec fields, latency report,
cached simulation results and seed reproducibility."""

from pathlib import Path

import pytest

from repro.api.registry import simulation_engines, traffic_scenarios
from repro.api.reports import report_types
from repro.api.result import RunResult
from repro.api.runner import Runner, execute_spec
from repro.api.spec import ExperimentPlan, ReportRequest, RunSpec, expand_run_entry
from repro.errors import PlanError

#: A tiny but real evaluation point: synthesizes, removes, orders and
#: simulates in well under a second.
SMALL = dict(benchmark="D26_media", switch_count=6, sim_cycles=200)


class TestSpecFields:
    def test_defaults(self):
        spec = RunSpec(benchmark="D26_media", switch_count=8)
        assert spec.sim_engine == "compiled"
        assert spec.traffic_scenario == "flows"
        assert spec.injection_scale is None
        assert spec.sim_cycles == 3000
        assert spec.buffer_depth == 4

    def test_round_trip_with_simulation_fields(self):
        spec = RunSpec(
            benchmark="D26_media",
            switch_count=8,
            sim_engine="legacy",
            traffic_scenario="hotspot",
            injection_scale=1.5,
            sim_cycles=500,
            buffer_depth=2,
        )
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_simulation_fields_in_fingerprint(self):
        base = RunSpec(benchmark="D26_media", switch_count=8)
        variants = [
            RunSpec(benchmark="D26_media", switch_count=8, sim_engine="legacy"),
            RunSpec(benchmark="D26_media", switch_count=8, traffic_scenario="uniform"),
            RunSpec(benchmark="D26_media", switch_count=8, injection_scale=1.0),
            RunSpec(benchmark="D26_media", switch_count=8, sim_cycles=100),
            RunSpec(benchmark="D26_media", switch_count=8, buffer_depth=2),
        ]
        fingerprints = {spec.fingerprint() for spec in variants}
        assert base.fingerprint() not in fingerprints
        assert len(fingerprints) == len(variants)

    def test_invalid_values_rejected(self):
        with pytest.raises(PlanError):
            RunSpec(benchmark="D26_media", switch_count=8, injection_scale=-1.0)
        for scale in (float("nan"), float("inf")):
            with pytest.raises(PlanError, match="injection_scale must be positive and finite"):
                RunSpec(benchmark="D26_media", switch_count=8, injection_scale=scale)
        with pytest.raises(PlanError):
            RunSpec(benchmark="D26_media", switch_count=8, injection_scale="high")
        with pytest.raises(PlanError):
            RunSpec(benchmark="D26_media", switch_count=8, sim_cycles=0)
        with pytest.raises(PlanError):
            RunSpec(benchmark="D26_media", switch_count=8, buffer_depth=0)
        with pytest.raises(PlanError):
            RunSpec(benchmark="D26_media", switch_count=8, sim_engine="")

    def test_injection_scale_normalised_to_float(self):
        spec = RunSpec(benchmark="D26_media", switch_count=8, injection_scale=2)
        assert spec.injection_scale == 2.0
        assert isinstance(spec.injection_scale, float)

    def test_cost_only_specs_keep_their_pre_simulation_fingerprint(self):
        """Default sim fields are elided from the serialized form, so specs
        that never touch the simulation axis hash to the same content
        address as before the axis existed — warm caches stay warm."""
        spec = RunSpec(benchmark="D26_media", switch_count=8, seed=1)
        document = spec.to_dict()
        for name in ("sim_engine", "traffic_scenario", "injection_scale",
                     "sim_cycles", "buffer_depth"):
            assert name not in document
        # The content address of this exact spec (the pre-simulation
        # 8-field document plus the stage versions); a change here silently
        # invalidates every user's artifact cache, so only a stage version
        # bump may move it (last moved by removal 2).
        assert spec.fingerprint() == (
            "a9cefe9b1fcab4ed742afe2b447d938946659813b3608495e09c4d758b332652"
        )

    def test_explicit_default_sim_values_share_the_fingerprint(self):
        implicit = RunSpec(benchmark="D26_media", switch_count=8)
        explicit = RunSpec(
            benchmark="D26_media",
            switch_count=8,
            sim_engine="compiled",
            traffic_scenario="flows",
            sim_cycles=3000,
            buffer_depth=4,
        )
        assert implicit.fingerprint() == explicit.fingerprint()


class TestGridExpansion:
    def test_injection_scales_axis(self):
        specs = expand_run_entry(
            {
                "benchmark": "D26_media",
                "switch_count": 8,
                "injection_scales": [0.5, 1.0],
                "traffic_scenario": "uniform",
            }
        )
        assert [spec.injection_scale for spec in specs] == [0.5, 1.0]
        assert all(spec.traffic_scenario == "uniform" for spec in specs)

    def test_scales_are_innermost_axis(self):
        specs = expand_run_entry(
            {
                "benchmark": "D26_media",
                "switch_counts": [6, 8],
                "injection_scales": [0.5, 1.0],
            }
        )
        assert [(s.switch_count, s.injection_scale) for s in specs] == [
            (6, 0.5),
            (6, 1.0),
            (8, 0.5),
            (8, 1.0),
        ]

    def test_entry_overrides_default_scale_axis(self):
        specs = expand_run_entry(
            {"benchmark": "D26_media", "switch_count": 8, "injection_scales": [2.0]},
            defaults={"injection_scale": 1.0},
        )
        assert [spec.injection_scale for spec in specs] == [2.0]

    def test_no_scale_means_no_simulation(self):
        specs = expand_run_entry({"benchmark": "D26_media", "switch_count": 8})
        assert specs[0].injection_scale is None


class TestLatencyReport:
    def test_registered(self):
        assert "latency" in report_types

    def test_specs_one_per_scale(self):
        report = report_types.get("latency")
        specs = report.specs(
            {"benchmark": "D26_media", "switch_count": 8, "injection_scales": [0.5, 1.0]}
        )
        assert [spec.injection_scale for spec in specs] == [0.5, 1.0]
        assert all(spec.benchmark == "D26_media" for spec in specs)

    def test_routing_engine_reaches_report_specs(self):
        report = report_types.get("latency")
        specs = report.specs(
            {"benchmark": "D26_media", "switch_count": 8, "injection_scales": [0.5],
             "routing_engine": "legacy"}
        )
        assert [spec.routing_engine for spec in specs] == ["legacy"]

    @pytest.mark.parametrize("report", sorted(report_types.names()))
    def test_misspelt_parameter_is_rejected(self, report):
        params = {"family": "ring", "sim_cyles": 500}
        with pytest.raises(PlanError, match="sim_cyles"):
            report_types.get(report).specs(params)
        plan = ExperimentPlan(reports=[ReportRequest(type=report, params=params)])
        with pytest.raises(PlanError, match="sim_cyles"):
            plan.all_specs()

    def test_every_checked_in_plan_still_loads(self):
        plans = sorted((Path(__file__).resolve().parents[2] / "plans").glob("*.json"))
        assert plans
        for path in plans:
            assert ExperimentPlan.load(path).all_specs(), path.name

    def test_end_to_end_render(self, tmp_path):
        plan = ExperimentPlan(
            name="latency-test",
            reports=[
                ReportRequest(
                    type="latency",
                    params={**SMALL, "injection_scales": [0.5, 1.5]},
                )
            ],
        )
        outcome = Runner(cache_dir=tmp_path).run(plan)
        name, data = outcome.render_reports()[0]
        assert name == "latency"
        assert data["injection_scales"] == [0.5, 1.5]
        for variant in ("unprotected", "removal", "ordering"):
            curve = data["variants"][variant]
            assert len(curve["average_latency"]) == 2
            assert len(curve["delivered_flits_per_cycle"]) == 2
        # Second pass is served entirely from the cache and renders the same.
        second = Runner(cache_dir=tmp_path).run(plan)
        assert second.cache_hits == len(second.results) == 2
        assert second.render_reports()[0][1] == data


class TestSimulatingSpecs:
    def test_execute_spec_attaches_simulation(self):
        spec = RunSpec(injection_scale=1.0, **SMALL)
        result = execute_spec(spec)
        assert result.simulation is not None
        assert result.simulation["traffic_scenario"] == "flows"
        assert set(result.simulation["variants"]) == {
            "unprotected",
            "removal",
            "ordering",
        }
        metrics = result.simulation["variants"]["removal"]
        assert metrics["packets_delivered"] >= 0
        assert metrics["cycles_run"] > 0

    def test_simulation_round_trips_through_result_schema(self):
        spec = RunSpec(injection_scale=1.0, **SMALL)
        result = execute_spec(spec)
        clone = RunResult.from_dict(result.to_dict())
        assert clone.simulation == result.simulation

    def test_cached_document_without_simulation_is_rejected(self):
        spec = RunSpec(injection_scale=1.0, **SMALL)
        result = execute_spec(spec)
        document = result.to_dict()
        del document["simulation"]
        with pytest.raises(PlanError):
            RunResult.from_dict(document)

    def test_cost_only_spec_has_no_simulation_key(self):
        spec = RunSpec(benchmark="D26_media", switch_count=6)
        result = execute_spec(spec)
        assert result.simulation is None
        assert "simulation" not in result.to_dict()

    def test_repeated_execution_is_reproducible(self):
        """RunSpec.seed drives the traffic RNG: same spec, same metrics."""
        spec = RunSpec(injection_scale=2.0, seed=3, **SMALL)
        first = execute_spec(spec)
        second = execute_spec(spec)
        assert first.simulation == second.simulation

    def test_seed_changes_simulation(self):
        base = dict(injection_scale=2.0, **SMALL)
        a = execute_spec(RunSpec(seed=0, **base))
        b = execute_spec(RunSpec(seed=1, **base))
        assert a.simulation["variants"] != b.simulation["variants"]

    def test_engines_agree_through_the_api(self):
        compiled = execute_spec(RunSpec(injection_scale=1.5, **SMALL))
        legacy = execute_spec(RunSpec(injection_scale=1.5, sim_engine="legacy", **SMALL))
        assert compiled.simulation["variants"] == legacy.simulation["variants"]


class TestRegistriesExported:
    def test_api_package_exports_new_registries(self):
        import repro.api as api

        assert api.simulation_engines is simulation_engines
        assert api.traffic_scenarios is traffic_scenarios
