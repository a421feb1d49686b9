"""End-to-end tests for the experiment Runner and the artifact cache flow."""

import json
import random
from pathlib import Path

import pytest

from repro.api.cache import ArtifactCache
from repro.api.reports import run_report
from repro.api.result import RunResult
from repro.api.runner import (
    COST_KIND,
    RESULT_KIND,
    Runner,
    audit_cache,
    execute_spec,
    run_plan,
)
from repro.api.spec import STAGE_VERSIONS, ExperimentPlan, ReportRequest, RunSpec


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

    def test_a_record_of_another_spec_is_recomputed_not_served(self, tmp_path):
        """A record answers only the spec it holds: filed under another
        spec's key, it is a miss, and the fresh record overwrites it."""
        cache = ArtifactCache(tmp_path)
        six, seven = (RunSpec(benchmark="D26_media", switch_count=count) for count in (6, 7))
        cache.put(RESULT_KIND, seven.fingerprint(), execute_spec(six).to_dict())

        result = execute_spec(seven, cache)
        assert result.cache_hit is False
        assert result.switch_count == 7
        assert RunResult.from_dict(cache.get(RESULT_KIND, seven.fingerprint())).spec == seven
        assert execute_spec(seven, cache).cache_hit is True

    def test_malformed_bundle_design_is_recomputed(self, tmp_path, counting_synthesis):
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


PLANS = Path(__file__).resolve().parents[2] / "plans"


class TestStageVersions:
    """Both addresses hash the stage versions, so a bump reaches every warm cache."""

    @pytest.mark.parametrize(
        "stage, bundles_recomputed",
        [("simulation", 0), ("removal", 1)],
        ids=["simulation", "removal"],
    )
    def test_a_bump_recomputes_what_the_stage_feeds(
        self, tmp_path, monkeypatch, stage, bundles_recomputed
    ):
        """A simulation bump serves every cost bundle and recomputes every
        record; a removal bump recomputes both.  The records keep their
        bytes (host time aside): they hold the spec, not its address."""
        from repro.api import runner

        plan = ExperimentPlan.load(PLANS / "ci_latency_smoke.json")
        warm = Runner(cache_dir=tmp_path).run(plan)
        real = runner.compare_methods
        computed = []
        monkeypatch.setattr(
            runner, "compare_methods", lambda spec: computed.append(spec) or real(spec)
        )
        monkeypatch.setitem(STAGE_VERSIONS, stage, STAGE_VERSIONS[stage] + 1)
        bumped = Runner(cache_dir=tmp_path).run(plan)

        cache = ArtifactCache(tmp_path)
        assert bumped.cache_hits == 0
        assert len(computed) == bundles_recomputed
        assert cache.entry_count(RESULT_KIND) == 2 * len(plan.all_specs())
        assert cache.entry_count(COST_KIND) == 1 + bundles_recomputed

        def strip(result):
            document = result.to_dict()
            document.pop("removal_runtime_s")
            return document

        assert [strip(r) for r in bumped.results] == [strip(r) for r in warm.results]


class TestCacheAudit:
    def test_audit_finds_nothing_then_one_planted_edit(self, tmp_path):
        Runner(cache_dir=tmp_path).run(ExperimentPlan.load(PLANS / "ci_latency_smoke.json"))
        cache = ArtifactCache(tmp_path)
        audited, orphaned = audit_cache(cache, sample=5)
        assert len(audited) == 2 and set(audited.values()) == {None} and orphaned == 0

        planted = cache.keys(RESULT_KIND)[0]
        document = cache.get(RESULT_KIND, planted)
        document["removal_extra_vcs"] += 1
        cache.put(RESULT_KIND, planted, document)
        audited, orphaned = audit_cache(cache, sample=5)
        assert {k: v for k, v in audited.items() if v} == {planted: "removal_extra_vcs"}
        assert orphaned == 0

    def test_draw_is_seeded_over_sorted_entries(self, tmp_path):
        Runner(cache_dir=tmp_path).run(
            ExperimentPlan.from_grid("audit", "D26_media", [5, 6, 8])
        )
        cache = ArtifactCache(tmp_path)
        keys = cache.keys(RESULT_KIND)
        assert keys == sorted(keys) and len(keys) == 3
        audited, _ = audit_cache(cache, sample=2)
        assert list(audited) == random.Random(0).sample(keys, 2)

    def test_records_a_stage_bump_left_behind_are_skipped(self, tmp_path, monkeypatch):
        """After a bump the old records sit at addresses no spec has: they
        are orphaned, not re-executed, and no diff is reported for them."""
        plan = ExperimentPlan.load(PLANS / "ci_latency_smoke.json")
        Runner(cache_dir=tmp_path).run(plan)
        cache = ArtifactCache(tmp_path)
        monkeypatch.setitem(STAGE_VERSIONS, "removal", STAGE_VERSIONS["removal"] + 1)
        assert audit_cache(cache, sample=5) == ({}, 2)

        Runner(cache_dir=tmp_path).run(plan)
        audited, orphaned = audit_cache(cache, sample=5)
        assert set(audited.values()) == {None}
        assert sorted(audited) == sorted(spec.fingerprint() for spec in plan.all_specs())
        assert orphaned == 2

    def test_a_record_filed_under_another_key_is_not_audited(self, tmp_path):
        Runner(cache_dir=tmp_path).run(ExperimentPlan.load(PLANS / "ci_latency_smoke.json"))
        cache = ArtifactCache(tmp_path)
        first, second = cache.keys(RESULT_KIND)
        cache.put(RESULT_KIND, second, cache.get(RESULT_KIND, first))
        assert audit_cache(cache, sample=5) == ({first: None}, 1)

    def test_cli_exit_codes(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        assert main(["run", str(PLANS / "ci_latency_smoke.json"), "--cache-dir", str(tmp_path)]) == 0
        assert main(["cache", "audit", "--sample", "5", "--cache-dir", str(tmp_path)]) == 0
        cache = ArtifactCache(tmp_path)
        planted = cache.keys(RESULT_KIND)[-1]
        document = cache.get(RESULT_KIND, planted)
        document["simulation"]["variants"]["removal"]["packets_delivered"] += 1
        cache.put(RESULT_KIND, planted, document)
        capsys.readouterr()
        assert main(["cache", "audit", "--sample", "5", "--cache-dir", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == f"{planted}: differs at 'simulation'\n"
        assert "1 of 2 record(s) differ; 0 orphaned" in captured.err
        assert main(["cache", "audit", "--sample", "0", "--cache-dir", str(tmp_path)]) == 2

        monkeypatch.setitem(STAGE_VERSIONS, "removal", STAGE_VERSIONS["removal"] + 1)
        capsys.readouterr()
        assert main(["cache", "audit", "--sample", "5", "--cache-dir", str(tmp_path)]) == 0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "0 of 0 record(s) differ; 2 orphaned" in captured.err
