"""The Runner batch planner: grouping, solo execution and cache invisibility.

Batching is a pure execution strategy — it must never show up in the
artifact cache layout, the fingerprints, or the record schema.  The tests
here pin that contract end to end for every kind of group: grouped specs
produce byte-identical cached ``RunResult`` documents to solo execution
on every engine (trace lanes with different replay horizons, an
availability grid of fault specs whose ``reroute`` lanes deadlock, a
``compiled`` load grid and a ``legacy`` pair), a parallel run that splits
a group into chunks agrees with the serial one and its batches read one
resolved copy of their cost bundle, a plan run twice is
served entirely from cache, cost bundles make load points share one
removal run, and a group whose specs do not share one batch key is
rejected instead of simulated with the first spec's settings.
"""

from __future__ import annotations

import json

import pytest

from repro.api.cache import ArtifactCache
from repro.api.registry import removal_engines
from repro.api.runner import (
    COST_KIND,
    RESULT_KIND,
    Runner,
    _plan_batches,
    execute_spec,
    execute_spec_batch,
)
from repro.api.spec import ExperimentPlan, ReportRequest, RunSpec
from repro.errors import PlanError


def _grid(scales, **overrides) -> list:
    base = dict(
        benchmark="D26_media",
        switch_count=8,
        sim_cycles=300,
        sim_engine="batched",
    )
    base.update(overrides)
    return [RunSpec(injection_scale=scale, **base) for scale in scales]


def _trace_specs(horizons) -> list:
    """Batched trace-scenario specs, one per synthetic trace horizon."""
    return [
        _grid([1.0], traffic_scenario="trace", scenario_params={"trace_cycles": cycles})[0]
        for cycles in horizons
    ]


def _availability_plan() -> ExperimentPlan:
    """All four recovery policies x two burst-fault seeds on D36_8 @ 14.

    Under fault seeds 0 and 1 the ``reroute`` lanes deadlock (the
    unprotected variant under both, the removal variant under seed 1).
    """
    return ExperimentPlan.from_dict(
        {
            "format_version": 1,
            "name": "availability-grid",
            "reports": [
                {
                    "type": "availability",
                    "benchmark": "D36_8",
                    "switch_count": 14,
                    "sim_cycles": 300,
                    "fault_model": "spatial_burst",
                    "fault_params": {
                        "radius": 1,
                        "start_cycle": 50,
                        "end_cycle": 150,
                        "restore_after": 100,
                    },
                    "recovery_policies": ["removal", "reroute", "idle", "protection"],
                    "seeds": [0, 1],
                }
            ],
        }
    )


def _assert_batch_bytes_equal_solo(specs, tmp_path, engine="batched") -> list:
    """One batch group and its specs run alone write byte-identical records.

    Returns the group's results.
    """
    batch_cache = ArtifactCache(tmp_path / "batch")
    results = execute_spec_batch(specs, batch_cache)
    solo_cache = ArtifactCache(tmp_path / "solo")
    # Seed the solo cache with the shared cost bundle so the wall-clock
    # removal_runtime_s scalar matches exactly.
    fingerprint = specs[0].cost_fingerprint()
    solo_cache.put(COST_KIND, fingerprint, batch_cache.get(COST_KIND, fingerprint))
    for spec in specs:
        execute_spec(spec, solo_cache)
        key = spec.fingerprint()
        batch_bytes = batch_cache._path(RESULT_KIND, key).read_text()
        assert batch_bytes == solo_cache._path(RESULT_KIND, key).read_text()
        assert json.loads(batch_bytes)["simulation"]["engine"] == engine
    return results


@pytest.fixture
def counting_removal(monkeypatch):
    """Replace the default removal engine with a call-counting wrapper."""
    real = removal_engines.get("context")
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(True)
        return real(*args, **kwargs)

    monkeypatch.setitem(removal_engines._entries, "context", wrapper)
    return calls


class TestPlanBatches:
    def test_load_points_group_into_one_batch(self):
        specs = _grid([0.5, 1.0, 1.5])
        assert _plan_batches(specs) == [[0, 1, 2]]

    def test_engines_of_one_bundle_group_apart(self):
        """Compiled specs of one bundle form one group, apart from batched ones."""
        specs = _grid([0.5, 1.0], sim_engine="compiled") + _grid([1.5, 2.0])
        specs += _grid([2.5], sim_engine="compiled")
        assert _plan_batches(specs) == [[0, 1, 4], [2, 3]]

    def test_different_designs_group_separately(self):
        specs = _grid([0.5, 1.0]) + _grid([0.5, 1.0], switch_count=10)
        assert _plan_batches(specs) == [[0, 1], [2, 3]]

    def test_different_sim_cycles_split_groups(self):
        specs = _grid([0.5, 1.0]) + _grid([0.5], sim_cycles=999)
        assert _plan_batches(specs) == [[0, 1], [2]]

    def test_cost_only_fields_do_not_split_groups(self):
        """Seeds and scenarios vary inside one group; engines do not."""
        specs = _grid([0.5, 1.0]) + _grid(
            [1.5], seed=7, traffic_scenario="uniform"
        )
        # seed participates in synthesis, so it splits; scenario alone must not.
        specs_same_seed = _grid([0.5, 1.0]) + _grid(
            [1.5], traffic_scenario="uniform"
        )
        assert _plan_batches(specs) == [[0, 1], [2]]
        assert _plan_batches(specs_same_seed) == [[0, 1, 2]]

    def test_fault_specs_join_their_bundle_group(self):
        specs = _grid([0.5, 1.0]) + _grid([1.5], fault_model="uniform")
        assert _plan_batches(specs) == [[0, 1, 2]]

    def test_workers_split_a_group_into_contiguous_chunks(self):
        specs = _grid([0.5, 1.0, 1.5, 2.0, 2.5]) + _grid([0.5], sim_cycles=999)
        assert _plan_batches(specs, workers=2) == [[0, 1, 2], [3, 4], [5]]

    def test_trace_lanes_with_one_horizon_stay(self):
        specs = _grid(
            [0.5, 1.0],
            traffic_scenario="trace",
            scenario_params={"trace_cycles": 200},
        )
        assert _plan_batches(specs) == [[0, 1]]

    def test_trace_lanes_with_mixed_horizons_batch(self):
        """Every lane replays its own generator, so horizons may differ."""
        specs = _trace_specs((200, 400)) + _grid([1.5])
        assert _plan_batches(specs) == [[0, 1, 2]]


class TestBatchExecutionInvisibility:
    def test_records_byte_identical_to_solo(self, tmp_path):
        """Grouped execution writes the very bytes solo execution writes."""
        _assert_batch_bytes_equal_solo(_grid([0.5, 1.0, 1.5]), tmp_path)

    def test_availability_grid_identical(self, tmp_path):
        """Fault specs of every policy run as one grid, deadlocking lanes included."""
        specs = _availability_plan().all_specs()
        assert _plan_batches(specs) == [list(range(8))]
        results = _assert_batch_bytes_equal_solo(specs, tmp_path, engine="compiled")
        rerouted = [r for r in results if r.spec.fault_recovery == "reroute"]
        assert all(r.simulation["variants"]["unprotected"]["deadlocked"] for r in rerouted)

    def test_compiled_load_grid_identical(self, tmp_path):
        specs = _grid([0.5, 1.0, 2.0], sim_engine="compiled")
        _assert_batch_bytes_equal_solo(specs, tmp_path, engine="compiled")

    def test_legacy_pair_identical(self, tmp_path):
        specs = _grid([0.5, 2.0], sim_engine="legacy", sim_cycles=200)
        _assert_batch_bytes_equal_solo(specs, tmp_path, engine="legacy")

    def test_mixed_trace_horizons_identical(self, tmp_path):
        """Trace lanes of different horizons batch with a flows lane, exactly."""
        specs = _trace_specs((150, 250)) + _grid([1.5])
        assert _plan_batches(specs) == [[0, 1, 2]]
        _assert_batch_bytes_equal_solo(specs, tmp_path)

    def test_engine_field_stays_batched(self, tmp_path):
        results = execute_spec_batch(_grid([0.5, 1.0]), None)
        for result in results:
            assert result.simulation["engine"] == "batched"

    def test_plan_second_run_all_cache_hits(self, tmp_path):
        plan = ExperimentPlan(name="grid", specs=_grid([0.5, 1.0, 1.5]))
        runner = Runner(cache_dir=tmp_path / "cache")
        first = runner.run(plan)
        assert first.cache_hits == 0
        second = runner.run(plan)
        assert second.cache_hits == 3
        assert all(r.cache_hit for r in second.results)
        assert [r.to_dict() for r in second.results] == [
            r.to_dict() for r in first.results
        ]

    def test_parallel_and_serial_agree(self, tmp_path):
        specs = _grid([0.5, 1.0]) + _grid([1.5], sim_engine="compiled")
        availability = _availability_plan()
        # Two workers split the availability grid into two halves.
        assert _plan_batches(availability.all_specs(), workers=2) == [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
        ]
        for plan in (ExperimentPlan(name="mixed", specs=specs), availability):
            serial = Runner(cache_dir=None).run(plan)
            parallel = Runner(cache_dir=tmp_path / plan.name, jobs=2).run(plan)
            assert len(serial.results) == len(parallel.results)
            for mine, theirs in zip(serial.results, parallel.results):
                assert mine.simulation == theirs.simulation
                assert mine.spec.fingerprint() == theirs.spec.fingerprint()
            # Every batch read the one cost bundle resolved before the fan-out.
            assert len({result.removal_runtime_s for result in parallel.results}) == 1

    def test_unsplit_groups_of_one_bundle_read_one_removal_run(self, tmp_path):
        """Two groups of one cost bundle, one per worker, share its cached copy."""
        plan = ExperimentPlan(
            name="two-groups", specs=_grid([0.5]) + _grid([1.5], sim_engine="compiled")
        )
        assert _plan_batches(plan.all_specs(), workers=2) == [[0], [1]]
        result = Runner(cache_dir=tmp_path / "cache", jobs=2).run(plan)
        assert len({r.removal_runtime_s for r in result.results}) == 1

    def test_latency_report_batches_transparently(self, tmp_path):
        """A latency report on the batched engine groups its load points."""
        plan = ExperimentPlan.from_dict(
            {
                "format_version": 1,
                "name": "latency-batched",
                "reports": [
                    {
                        "type": "latency",
                        "benchmark": "D26_media",
                        "switch_count": 8,
                        "injection_scales": [0.5, 1.0],
                        "sim_cycles": 300,
                        "sim_engine": "batched",
                    }
                ],
            }
        )
        assert _plan_batches(plan.all_specs()) == [[0, 1]]
        result = Runner(cache_dir=tmp_path / "cache").run(plan)
        rendered = result.render_reports()
        assert rendered[0][0] == "latency"
        assert rendered[0][1]["sim_engine"] == "batched"
        curve = rendered[0][1]["variants"]["removal"]
        assert len(curve["average_latency"]) == 2


class TestBatchRejections:
    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("sim_cycles", 600, "sim_cycles"),
            ("buffer_depth", 2, "buffer_depth"),
            ("sim_engine", "compiled", "sim_engine"),
            ("switch_count", 10, "cost_fingerprint"),
            ("injection_scale", None, "cost_only"),
        ],
    )
    def test_group_without_one_batch_key_rejected(self, field, value, named):
        """A spec never simulates with another spec's settings."""
        first = _grid([1.0])[0]
        other = RunSpec(**{**first.to_dict(), field: value})
        with pytest.raises(PlanError, match=f"must share {named}"):
            execute_spec_batch([first, other], None)


class TestCostBundle:
    def test_load_points_share_one_cost_bundle(self, tmp_path, counting_synthesis):
        specs = _grid([0.5, 1.0, 1.5], sim_engine="compiled")
        runner = Runner(cache_dir=tmp_path / "cache")
        for spec in specs:
            runner.run_spec(spec)
        assert counting_synthesis == [("D26_media", 8)]
        assert len(runner.cache.keys(COST_KIND)) == 1
        assert len(runner.cache.keys(RESULT_KIND)) == 3

    def test_second_load_point_skips_removal(self, tmp_path, counting_removal):
        specs = _grid([0.5, 1.0], sim_engine="compiled")
        runner = Runner(cache_dir=tmp_path / "cache")
        runner.run_spec(specs[0])
        first_removal_calls = len(counting_removal)
        assert first_removal_calls > 0
        runner.run_spec(specs[1])
        assert len(counting_removal) == first_removal_calls

    def test_removal_runtime_identical_across_load_points(self, tmp_path):
        specs = _grid([0.5, 1.0], sim_engine="compiled")
        runner = Runner(cache_dir=tmp_path / "cache")
        first = runner.run_spec(specs[0])
        second = runner.run_spec(specs[1])
        assert first.removal_runtime_s == second.removal_runtime_s
        assert first.removal_extra_vcs == second.removal_extra_vcs

    def test_cost_bundle_respects_engine_and_strategy(self, tmp_path):
        """Different removal engines must not share a cost bundle."""
        base = _grid([1.0], sim_engine="compiled")[0]
        varied = RunSpec(**{**base.to_dict(), "engine": "rebuild"})
        runner = Runner(cache_dir=tmp_path / "cache")
        runner.run_spec(base)
        runner.run_spec(varied)
        assert len(runner.cache.keys(COST_KIND)) == 2

    def test_corrupt_cost_bundle_recomputed(self, tmp_path, counting_removal):
        spec = _grid([1.0], sim_engine="compiled")[0]
        runner = Runner(cache_dir=tmp_path / "cache")
        runner.run_spec(spec)
        calls = len(counting_removal)
        path = runner.cache._path(COST_KIND, spec.cost_fingerprint())
        path.write_text("{not json")
        # Result cache still hits, so force a fresh simulation-side spec.
        other = _grid([2.0], sim_engine="compiled")[0]
        runner.run_spec(other)
        assert len(counting_removal) > calls  # bundle recomputed, not trusted


class TestFallbackCorrectness:
    def test_fault_schedule_spec_on_batched_engine(self, tmp_path):
        """A lone fault-carrying batched spec runs exactly as on compiled."""
        spec = RunSpec(
            benchmark="D26_media",
            switch_count=8,
            sim_cycles=300,
            sim_engine="batched",
            injection_scale=1.5,
            fault_model="uniform",
            fault_params={"link_failures": 1, "seed": 3},
        )
        assert _plan_batches([spec]) == [[0]]
        result = execute_spec(spec, None)
        reference = execute_spec(
            RunSpec(**{**spec.to_dict(), "sim_engine": "compiled"}), None
        )
        for variant in ("unprotected", "removal", "ordering"):
            assert (
                result.simulation["variants"][variant]
                == reference.simulation["variants"][variant]
            )

    def test_plain_solo_batched_spec_is_exact(self):
        """An ungrouped batched spec (B = 1) matches compiled exactly."""
        spec = _grid([1.0])[0]
        batched = execute_spec(spec, None)
        compiled = execute_spec(
            RunSpec(**{**spec.to_dict(), "sim_engine": "compiled"}), None
        )
        assert batched.simulation["variants"] == compiled.simulation["variants"]
