"""Spec/result plumbing of the fault-injection axis.

The ``fault_schedule`` field rides the same default-elision rule as every
other simulation-axis field: absent (``None``) it contributes nothing to
the spec's content address, so every record cached before the axis existed
is still a hit; present, two specs that differ only in their schedule get
different addresses and never collide in the artifact cache.
"""

from __future__ import annotations

import pytest

from repro.api.result import RunResult
from repro.api.spec import RunSpec, expand_run_entry
from repro.errors import PlanError

SCHEDULE = {
    "events": [
        {"cycle": 50, "action": "fail_link", "link": {"src": "a", "dst": "b"}}
    ]
}
OTHER_SCHEDULE = {
    "events": [
        {"cycle": 10, "action": "fail_router", "switch": "b"},
        {"cycle": 90, "action": "restore_router", "switch": "b"},
    ]
}


class TestFaultScheduleField:
    def test_default_is_elided_from_fingerprint(self):
        plain = RunSpec(benchmark="D36_8", switch_count=14, injection_scale=1.0)
        explicit_none = RunSpec(
            benchmark="D36_8",
            switch_count=14,
            injection_scale=1.0,
            fault_schedule=None,
        )
        assert "fault_schedule" not in plain.to_dict()
        assert plain.fingerprint() == explicit_none.fingerprint()

    def test_schedule_changes_the_fingerprint(self):
        plain = RunSpec(benchmark="D36_8", switch_count=14, injection_scale=1.0)
        faulted = RunSpec(
            benchmark="D36_8",
            switch_count=14,
            injection_scale=1.0,
            fault_schedule=SCHEDULE,
        )
        assert faulted.fingerprint() != plain.fingerprint()
        assert faulted.to_dict()["fault_schedule"] == SCHEDULE

    def test_different_schedules_get_different_addresses(self):
        def spec(schedule):
            return RunSpec(
                benchmark="D36_8",
                switch_count=14,
                injection_scale=1.0,
                fault_schedule=schedule,
            )

        assert spec(SCHEDULE).fingerprint() != spec(OTHER_SCHEDULE).fingerprint()

    def test_round_trip(self):
        spec = RunSpec(
            benchmark="D36_8",
            switch_count=14,
            injection_scale=1.0,
            fault_schedule=OTHER_SCHEDULE,
        )
        assert RunSpec.from_dict(spec.to_dict()) == spec

    @pytest.mark.parametrize("value", ["faults", 7, ["fail_link"], {"neither": 1}])
    def test_invalid_values_rejected(self, value):
        with pytest.raises(PlanError):
            RunSpec(
                benchmark="D36_8",
                switch_count=14,
                injection_scale=1.0,
                fault_schedule=value,
            )

    def test_random_request_points_to_the_uniform_model(self):
        with pytest.raises(PlanError, match='fault_model: "uniform"'):
            RunSpec(
                benchmark="D36_8",
                switch_count=14,
                injection_scale=1.0,
                fault_schedule={"random": {"link_failures": 2}},
            )

    def test_expand_run_entry_threads_the_schedule(self):
        specs = expand_run_entry(
            {
                "benchmark": "D36_8",
                "switch_counts": [10, 14],
                "injection_scale": 1.0,
                "fault_schedule": OTHER_SCHEDULE,
            }
        )
        assert len(specs) == 2
        assert all(spec.fault_schedule == OTHER_SCHEDULE for spec in specs)


def _result(**overrides) -> RunResult:
    base = dict(
        spec=RunSpec(benchmark="D36_8", switch_count=14),
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
    )
    base.update(overrides)
    return RunResult(**base)


class TestRunResultAttempts:
    def test_default_single_attempt_is_elided(self):
        result = _result()
        assert result.attempts == 1
        assert "attempts" not in result.to_dict()
        assert RunResult.from_dict(result.to_dict()).attempts == 1

    def test_retried_record_round_trips(self):
        result = _result(attempts=3)
        document = result.to_dict()
        assert document["attempts"] == 3
        assert RunResult.from_dict(document).attempts == 3

    def test_attempts_excluded_from_equality(self):
        # A record that needed a retry is still the same record.
        assert _result(attempts=2) == _result(attempts=1)
