"""Spec plumbing of the fault-model axis and the availability report.

``fault_model``/``fault_params``/``fault_recovery`` follow the same
default-elision rule as every other simulation-axis field: at their
defaults they contribute nothing to the spec's content address, so every
record cached before the axis existed is still a hit.  The availability
report builds a (policy x fault seed) grid over those fields with the
design seed pinned, and its render must never average the ``-1``
"never drained" sentinel into a latency percentile.
"""

from __future__ import annotations

import pytest

from repro.api.reports import (
    DEFAULT_AVAILABILITY_POLICIES,
    DEFAULT_AVAILABILITY_SEEDS,
    _percentile,
    _sentinel_free,
    report_types,
)
from repro.api.result import RunResult
from repro.api.spec import RunSpec, expand_run_entry
from repro.errors import PlanError


def _spec(**overrides) -> RunSpec:
    base = dict(benchmark="D36_8", switch_count=14, injection_scale=1.0)
    base.update(overrides)
    return RunSpec(**base)


class TestFaultModelFields:
    def test_defaults_are_elided_from_fingerprint(self):
        plain = _spec()
        explicit = _spec(fault_model=None, fault_params={}, fault_recovery="removal")
        document = explicit.to_dict()
        for key in ("fault_model", "fault_params", "fault_recovery"):
            assert key not in document
        assert plain.fingerprint() == explicit.fingerprint()

    def test_each_field_changes_the_fingerprint(self):
        plain = _spec()
        modelled = _spec(fault_model="uniform")
        parametrised = _spec(fault_model="uniform", fault_params={"link_failures": 2})
        idled = _spec(fault_model="uniform", fault_recovery="idle")
        fingerprints = {
            spec.fingerprint() for spec in (plain, modelled, parametrised, idled)
        }
        assert len(fingerprints) == 4

    def test_round_trip(self):
        spec = _spec(
            fault_model="spatial_burst",
            fault_params={"radius": 2, "seed": 7},
            fault_recovery="protection",
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    def test_model_and_schedule_are_mutually_exclusive(self):
        with pytest.raises(PlanError, match="mutually exclusive"):
            _spec(fault_model="uniform", fault_schedule={"events": []})

    def test_params_without_model_rejected(self):
        with pytest.raises(PlanError, match="without a fault_model"):
            _spec(fault_params={"radius": 1})

    @pytest.mark.parametrize("value", ["", 7, ["uniform"]])
    def test_invalid_fault_model_rejected(self, value):
        with pytest.raises(PlanError):
            _spec(fault_model=value)

    @pytest.mark.parametrize("value", ["radius=1", 7, ["radius"]])
    def test_invalid_fault_params_rejected(self, value):
        with pytest.raises(PlanError):
            _spec(fault_model="uniform", fault_params=value)

    @pytest.mark.parametrize("value", ["", None, 3])
    def test_invalid_fault_recovery_rejected(self, value):
        with pytest.raises(PlanError):
            _spec(fault_recovery=value)

    def test_expand_run_entry_threads_the_axis(self):
        specs = expand_run_entry(
            {
                "benchmark": "D36_8",
                "switch_counts": [10, 14],
                "injection_scale": 1.0,
                "fault_model": "cascade",
                "fault_params": {"failures": 3},
                "fault_recovery": "idle",
            }
        )
        assert len(specs) == 2
        assert all(spec.fault_model == "cascade" for spec in specs)
        assert all(spec.fault_params == {"failures": 3} for spec in specs)
        assert all(spec.fault_recovery == "idle" for spec in specs)

    def test_grid_points_share_one_design_cache_entry(self):
        one = _spec(fault_model="uniform", fault_params={"seed": 0})
        two = _spec(fault_model="uniform", fault_params={"seed": 1})
        assert one.fingerprint() != two.fingerprint()
        assert one.cost_fingerprint() == two.cost_fingerprint()


class TestPercentile:
    def test_nearest_rank(self):
        assert _percentile([4, 1, 3, 2], 50) == 2
        assert _percentile(list(range(1, 101)), 95) == 95
        assert _percentile(list(range(1, 101)), 99) == 99
        assert _percentile([7], 99) == 7

    def test_empty_sample(self):
        assert _percentile([], 50) is None


class TestSentinelFree:
    def test_recomputes_aggregates_excluding_the_sentinel(self):
        entry = _sentinel_free(
            {"recovery_cycles": [10, -1, 20], "mean_recovery_cycles": 9.667}
        )
        assert entry["mean_recovery_cycles"] == 15.0
        assert entry["batches_never_drained"] == 1
        # The wire list keeps its sentinel untouched.
        assert entry["recovery_cycles"] == [10, -1, 20]

    def test_pre_axis_record_shape_passes_through(self):
        assert _sentinel_free({}) == {}


def _result(spec: RunSpec, simulation) -> RunResult:
    return RunResult(
        spec=spec,
        removal_extra_vcs=1,
        ordering_extra_vcs=5,
        removal_iterations=2,
        initial_cycle_count=-1,
        initial_cyclic_sccs=1,
        initial_largest_scc=4,
        initial_cyclic_channels=4,
        removal_runtime_s=0.1,
        unprotected_power_mw=10.0,
        removal_power_mw=11.0,
        ordering_power_mw=12.0,
        unprotected_area_mm2=1.0,
        removal_area_mm2=1.1,
        ordering_area_mm2=1.2,
        simulation=simulation,
    )


class TestAvailabilityReport:
    PARAMS = {
        "benchmark": "D26_media",
        "switch_count": 10,
        "fault_model": "spatial_burst",
        "fault_params": {"radius": 1},
        "recovery_policies": ["removal", "idle"],
        "seeds": list(range(10)),
    }

    def test_specs_form_the_policy_by_seed_grid(self):
        report = report_types.get("availability")
        specs = report.specs(self.PARAMS)
        assert len(specs) == 20
        assert [spec.fault_recovery for spec in specs[:10]] == ["removal"] * 10
        assert [spec.fault_recovery for spec in specs[10:]] == ["idle"] * 10
        assert [spec.fault_params["seed"] for spec in specs[:10]] == list(range(10))
        # The design seed is pinned: one cost bundle for the grid.
        assert len({spec.cost_fingerprint() for spec in specs}) == 1
        assert all(spec.fault_params["radius"] == 1 for spec in specs)
        assert all(spec.fault_model == "spatial_burst" for spec in specs)

    def test_default_grid_is_four_policies_by_ten_seeds(self):
        report = report_types.get("availability")
        specs = report.specs({})
        assert len(specs) == len(DEFAULT_AVAILABILITY_POLICIES) * len(
            DEFAULT_AVAILABILITY_SEEDS
        )

    def test_render_folds_the_grid_without_averaging_sentinels(self):
        report = report_types.get("availability")
        specs = report.specs(self.PARAMS)
        lookup = {}
        for spec in specs:
            fault_seed = spec.fault_params["seed"]
            if spec.fault_recovery == "removal":
                resilience = {
                    "recovery_cycles": [10 + fault_seed],
                    "flits_lost": 0,
                    "post_fault_deadlock_free": True,
                }
                delivered = 100
            else:
                # Seed 0 never drains its batch and ends deadlocked.
                resilience = {
                    "recovery_cycles": [-1 if fault_seed == 0 else 30],
                    "flits_lost": 8,
                    "post_fault_deadlock_free": fault_seed != 0,
                }
                delivered = 90
            simulation = {
                "engine": "compiled",
                "variants": {
                    "removal": {
                        "packets_injected": 100,
                        "packets_delivered": delivered,
                        "resilience": resilience,
                    }
                },
            }
            lookup[spec.fingerprint()] = _result(spec, simulation)

        rendered = report.render(self.PARAMS, lookup)
        assert rendered["fault_model"] == "spatial_burst"
        assert rendered["seeds"] == list(range(10))

        removal = rendered["policies"]["removal"]
        assert removal["mean_delivered_fraction"] == 1.0
        assert removal["recovery_cycles_p50"] == 14  # nearest rank of 10..19
        assert removal["recovery_cycles_p99"] == 19
        assert removal["recovery_samples"] == 10
        assert removal["batches_never_drained"] == 0
        assert removal["deadlock_free_fraction"] == 1.0

        idle = rendered["policies"]["idle"]
        assert idle["mean_delivered_fraction"] == pytest.approx(0.9)
        # Nine drained batches at 30 cycles; the -1 sentinel is counted,
        # never averaged.
        assert idle["recovery_samples"] == 9
        assert idle["recovery_cycles_p50"] == 30
        assert idle["batches_never_drained"] == 1
        assert idle["deadlock_free_fraction"] == pytest.approx(0.9)
        assert idle["mean_flits_lost"] == pytest.approx(8.0)
