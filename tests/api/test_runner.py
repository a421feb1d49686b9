"""End-to-end tests for the experiment Runner and the artifact cache flow."""

import json

import pytest

from repro.api.registry import synthesis_backends
from repro.api.reports import run_report
from repro.api.result import RunResult
from repro.api.runner import DESIGN_KIND, RESULT_KIND, Runner, run_plan
from repro.api.spec import ExperimentPlan, ReportRequest, RunSpec


@pytest.fixture
def counting_backend(monkeypatch):
    """Replace the 'custom' synthesis backend with a call-counting wrapper."""
    real = synthesis_backends.get("custom")
    calls = []

    def wrapper(traffic, config):
        calls.append((traffic.name, config.n_switches))
        return real(traffic, config)

    monkeypatch.setitem(synthesis_backends._entries, "custom", wrapper)
    return calls


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

        comparison = compare_methods("D36_8", 14)
        result = Runner().run_spec(RunSpec(benchmark="D36_8", switch_count=14))
        assert result.removal_extra_vcs == comparison.removal_extra_vcs
        assert result.ordering_extra_vcs == comparison.ordering_extra_vcs
        assert result.removal_power_mw == comparison.removal_power.total_power_mw
        assert result.ordering_area_mm2 == comparison.ordering_area.total_area_mm2
        assert result.vc_reduction_percent == comparison.vc_reduction_percent
        assert result.normalised_ordering_power == comparison.normalised_ordering_power


class TestArtifactCacheFlow:
    def test_second_run_hits_cache_and_skips_synthesis(self, tmp_path, counting_backend):
        spec = RunSpec(benchmark="D26_media", switch_count=8)
        runner = Runner(cache_dir=tmp_path / "cache")

        first = runner.run_spec(spec)
        assert first.cache_hit is False
        assert counting_backend == [("D26_media", 8)]

        second = runner.run_spec(spec)
        assert second.cache_hit is True
        # The whole pipeline was skipped: no re-synthesis happened.
        assert counting_backend == [("D26_media", 8)]
        assert second.to_dict() == first.to_dict()

    def test_design_reused_across_engines_and_strategies(self, tmp_path, counting_backend):
        runner = Runner(cache_dir=tmp_path / "cache")
        runner.run_spec(RunSpec(benchmark="D36_8", switch_count=14))
        assert len(counting_backend) == 1

        # Different engine + strategy: result cache misses, but the
        # synthesized design is served from the cache.
        varied = runner.run_spec(
            RunSpec(
                benchmark="D36_8",
                switch_count=14,
                engine="rebuild",
                ordering_strategy="layered",
            )
        )
        assert varied.cache_hit is False
        assert len(counting_backend) == 1  # still one synthesis
        assert runner.cache.entry_count(DESIGN_KIND) == 1
        assert runner.cache.entry_count(RESULT_KIND) == 2

    def test_cached_design_reload_is_result_faithful(self, tmp_path):
        """A design served from the cache must yield the exact numbers a
        fresh synthesis yields (route order survives serialization)."""
        spec = RunSpec(benchmark="D36_8", switch_count=14, engine="rebuild")
        runner = Runner(cache_dir=tmp_path / "cache")
        runner.run_spec(RunSpec(benchmark="D36_8", switch_count=14))  # seeds design cache
        via_cache = runner.run_spec(spec).to_dict()
        fresh = Runner().run_spec(spec).to_dict()
        via_cache.pop("removal_runtime_s")
        fresh.pop("removal_runtime_s")
        assert via_cache == fresh

    def test_stale_result_schema_is_recomputed_not_raised(self, tmp_path, counting_backend):
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

    def test_malformed_design_document_is_recomputed(self, tmp_path, counting_backend):
        spec = RunSpec(benchmark="D26_media", switch_count=8)
        runner = Runner(cache_dir=tmp_path / "cache")
        runner.run_spec(spec)
        runner.cache.put(DESIGN_KIND, spec.synthesis_fingerprint(), {"junk": True})

        # Result cache misses for the rebuild variant; the broken design
        # document must fall back to fresh synthesis.
        varied = runner.run_spec(RunSpec(benchmark="D26_media", switch_count=8, engine="rebuild"))
        assert varied.cache_hit is False
        assert len(counting_backend) == 2

    def test_cache_dir_tilde_is_expanded(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HOME", str(tmp_path))
        from repro.api.cache import ArtifactCache

        cache = ArtifactCache("~/noc-cache")
        cache.put("result", "ab" + "0" * 62, {})
        assert (tmp_path / "noc-cache" / "result").is_dir()
        assert not (tmp_path / "~").exists()

    def test_no_cache_dir_never_writes(self, tmp_path, counting_backend):
        runner = Runner()
        spec = RunSpec(benchmark="D26_media", switch_count=8)
        runner.run_spec(spec)
        runner.run_spec(spec)
        assert len(counting_backend) == 2  # every run synthesizes
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

        comparisons = [compare_methods("D26_media", count) for count in (6, 9)]
        legacy = {
            "benchmark": "D26_media",
            "switch_counts": [6, 9],
            "resource_ordering_vcs": [c.ordering_extra_vcs for c in comparisons],
            "deadlock_removal_vcs": [c.removal_extra_vcs for c in comparisons],
        }
        data = run_report("figure8", {"switch_counts": [6, 9]})
        assert json.dumps(data) == json.dumps(legacy)

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
