"""End-to-end tests for the experiment Runner and the artifact cache flow."""

import json
from pathlib import Path

from repro.api.reports import run_report
from repro.api.result import RunResult
from repro.api.runner import COST_KIND, RESULT_KIND, Runner, run_plan
from repro.api.spec import ExperimentPlan, ReportRequest, RunSpec


class TestRunSpecExecution:
    def test_run_spec_produces_sane_record(self):
        result = Runner().run_spec(RunSpec(benchmark="D36_8", switch_count=10))
        assert result.benchmark == "D36_8"
        assert result.switch_count == 10
        assert result.removal_extra_vcs < result.ordering_extra_vcs
        assert result.removal_power_mw <= result.ordering_power_mw
        assert result.cache_hit is False

    def test_result_json_round_trip_is_lossless(self):
        result = Runner().run_spec(RunSpec(benchmark="D26_media", switch_count=8))
        clone = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone == result
        assert clone.as_row() == result.as_row()

    def test_matches_legacy_compare_methods(self):
        from repro.analysis.experiments import compare_methods

        spec = RunSpec(benchmark="D36_8", switch_count=14)
        scalars = compare_methods(spec).scalars
        result = Runner().run_spec(spec)
        scalars["removal_runtime_s"] = result.removal_runtime_s  # wall-clock
        assert result == RunResult(spec=spec, **scalars)


class TestArtifactCacheFlow:
    def test_second_run_hits_cache_and_skips_synthesis(self, tmp_path, counting_synthesis):
        spec = RunSpec(benchmark="D26_media", switch_count=8)
        runner = Runner(cache_dir=tmp_path / "cache")

        first = runner.run_spec(spec)
        assert first.cache_hit is False
        assert counting_synthesis == [("D26_media", 8)]

        second = runner.run_spec(spec)
        assert second.cache_hit is True
        # The whole pipeline was skipped: no re-synthesis happened.
        assert counting_synthesis == [("D26_media", 8)]
        assert second.to_dict() == first.to_dict()

    def test_cached_design_reload_is_result_faithful(self, tmp_path):
        """A record simulated on the designs of a cache-served cost bundle
        equals a fresh one (route order survives serialization)."""
        warm = RunSpec(benchmark="D36_8", switch_count=14, injection_scale=0.5, sim_cycles=300)
        spec = RunSpec(**{**warm.to_dict(), "injection_scale": 2.0})
        runner = Runner(cache_dir=tmp_path / "cache")
        runner.run_spec(warm)  # writes the shared cost bundle
        via_cache = runner.run_spec(spec).to_dict()
        assert runner.cache.hits == 1  # the bundle, read back from JSON
        fresh = Runner().run_spec(spec).to_dict()
        via_cache.pop("removal_runtime_s")
        fresh.pop("removal_runtime_s")
        assert via_cache == fresh

    def test_stale_result_schema_is_recomputed_not_raised(self, tmp_path, counting_synthesis):
        spec = RunSpec(benchmark="D26_media", switch_count=8)
        runner = Runner(cache_dir=tmp_path / "cache")
        first = runner.run_spec(spec)
        # Corrupt the cached record with a future schema version.
        document = runner.cache.get(RESULT_KIND, spec.fingerprint())
        document["format_version"] = 99
        runner.cache.put(RESULT_KIND, spec.fingerprint(), document)

        again = runner.run_spec(spec)
        assert again.cache_hit is False  # recomputed, not crashed
        assert again.to_dict()["format_version"] != 99
        # ...and the bad entry was overwritten with a good one.
        assert runner.run_spec(spec).cache_hit is True

    def test_malformed_design_document_is_recomputed(self, tmp_path, counting_synthesis):
        warm = RunSpec(benchmark="D26_media", switch_count=8, injection_scale=0.5, sim_cycles=100)
        runner = Runner(cache_dir=tmp_path / "cache")
        runner.run_spec(warm)
        document = runner.cache.get(COST_KIND, warm.cost_fingerprint())
        document["designs"]["unprotected"] = {"junk": True}
        runner.cache.put(COST_KIND, warm.cost_fingerprint(), document)

        # The next load point misses the result cache and reads the cost
        # bundle; its broken design document must fall back to synthesis.
        varied = runner.run_spec(RunSpec(**{**warm.to_dict(), "injection_scale": 1.0}))
        assert varied.cache_hit is False
        assert len(counting_synthesis) == 2

    def test_cache_dir_tilde_is_expanded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        from repro.api.cache import ArtifactCache

        cache = ArtifactCache("~/noc-cache")
        cache.put("result", "ab" + "0" * 62, {})
        assert (tmp_path / "noc-cache" / "result").is_dir()
        assert not (tmp_path / "~").exists()

    def test_no_cache_dir_never_writes(self, tmp_path, counting_synthesis):
        runner = Runner()
        spec = RunSpec(benchmark="D26_media", switch_count=8)
        runner.run_spec(spec)
        runner.run_spec(spec)
        assert len(counting_synthesis) == 2  # every run synthesizes
        assert list(tmp_path.iterdir()) == []


class TestPlanExecution:
    def test_plan_runs_in_spec_order(self, tmp_path):
        plan = ExperimentPlan.from_grid("order", "D26_media", [6, 9])
        outcome = Runner(cache_dir=tmp_path).run(plan)
        assert [r.switch_count for r in outcome.results] == [6, 9]
        assert outcome.cache_hits == 0
        again = Runner(cache_dir=tmp_path).run(plan)
        assert again.cache_hits == 2

    def test_run_plan_accepts_path(self, tmp_path):
        path = ExperimentPlan.from_grid("from-disk", "D26_media", [6]).save(
            tmp_path / "plan.json"
        )
        outcome = run_plan(path)
        assert len(outcome.results) == 1

    def test_report_rendering_matches_legacy_series(self):
        """The report pipeline must reproduce the legacy figure dictionary
        byte-for-byte (same keys, same values, same order)."""
        from repro.analysis.experiments import compare_methods

        bundles = [
            compare_methods(RunSpec(benchmark="D26_media", switch_count=count))
            for count in (6, 9)
        ]
        legacy = {
            "benchmark": "D26_media",
            "switch_counts": [6, 9],
            "resource_ordering_vcs": [b.scalars["ordering_extra_vcs"] for b in bundles],
            "deadlock_removal_vcs": [b.scalars["removal_extra_vcs"] for b in bundles],
        }
        data = run_report("figure8", {"switch_counts": [6, 9]})
        assert json.dumps(data) == json.dumps(legacy)

    def test_ci_smoke_plan_caches_only_records_and_cost_bundles(self, tmp_path):
        """A cold run of the checked-in smoke plan writes each spec's record
        and cost bundle and nothing else; a second run is served whole."""
        plans_dir = Path(__file__).resolve().parents[2] / "plans"
        plan = ExperimentPlan.load(plans_dir / "ci_smoke.json")
        cache_dir = tmp_path / "cache"
        Runner(cache_dir=cache_dir).run(plan)
        assert sorted(kind.name for kind in cache_dir.iterdir()) == [COST_KIND, RESULT_KIND]
        again = Runner(cache_dir=cache_dir).run(plan)
        assert again.cache_hits == len(plan.all_specs()) == 5

    def test_plan_result_document(self, tmp_path):
        plan = ExperimentPlan(
            name="doc",
            specs=[RunSpec(benchmark="D26_media", switch_count=6)],
            reports=[ReportRequest(type="figure8", params={"switch_counts": [6]})],
        )
        outcome = Runner(cache_dir=tmp_path).run(plan)
        document = outcome.to_dict()
        assert document["plan"]["name"] == "doc"
        assert len(document["results"]) == 1
        assert document["reports"][0]["type"] == "figure8"
        assert document["reports"][0]["data"]["switch_counts"] == [6]

    def test_parallel_plan_matches_serial(self, tmp_path):
        plan = ExperimentPlan.from_grid("par", "D26_media", [6, 8, 9])
        serial = Runner().run(plan)
        parallel = Runner(jobs=2).run(plan)

        def strip(result):
            document = result.to_dict()
            document.pop("removal_runtime_s")  # wall-clock is run-dependent
            return document

        assert [strip(r) for r in serial.results] == [strip(r) for r in parallel.results]


class TestCostPathBindings:
    def test_each_binding_runs_once_per_cost_bundle(self, tmp_path, monkeypatch):
        """The cost path calls each stage through the module binding that a
        profiler patches: one synthesis, removal and ordering, three
        estimations and three design serializations per cost bundle, and no
        design decoding against an empty cache."""
        from repro.analysis import experiments
        from repro.api import runner
        from repro.synthesis import builder

        bindings = [
            (builder, "synthesize_design"),
            (experiments, "remove_deadlocks"),
            (experiments, "apply_resource_ordering"),
            (experiments, "estimate_power_and_area"),
            (runner, "design_to_dict"),
            (runner, "design_from_dict"),
        ]
        calls = {name: 0 for _, name in bindings}

        def counting(name, real):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)

            return wrapper

        for module, name in bindings:
            monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
        plan = ExperimentPlan(
            name="bindings",
            specs=[RunSpec(benchmark="D26_media", switch_count=6)],
            reports=[
                ReportRequest(
                    type="latency",
                    params={
                        "benchmark": "D26_media",
                        "switch_count": 8,
                        "injection_scales": [0.5, 1.0],
                        "sim_engine": "batched",
                        "sim_cycles": 200,
                    },
                )
            ],
        )
        outcome = Runner(cache_dir=tmp_path / "cache").run(plan)
        assert len(outcome.results) == 3
        bundles = 2  # the cost-only spec, and one shared by both load points
        assert calls == {
            "synthesize_design": bundles,
            "remove_deadlocks": bundles,
            "apply_resource_ordering": bundles,
            "estimate_power_and_area": 3 * bundles,
            "design_to_dict": 3 * bundles,
            "design_from_dict": 0,
        }
