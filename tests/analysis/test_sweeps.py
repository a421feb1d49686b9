"""Shape checks of the figure-level sweeps (the paper-figure reports).

The full-size sweeps run in ``benchmarks/bench_paper_claims.py``; here the
report types of :mod:`repro.api.reports` are exercised through
:func:`~repro.api.reports.run_report` on reduced grids, to keep the
unit-test suite fast while still checking the shape of every figure.
"""

from repro.api.reports import (
    FIGURE10_BENCHMARKS,
    FIGURE8_SWITCH_COUNTS,
    FIGURE9_SWITCH_COUNTS,
    run_report,
)
from repro.api.runner import Runner
from repro.api.spec import RunSpec


class TestDefaults:
    def test_figure8_grid_spans_paper_range(self):
        assert min(FIGURE8_SWITCH_COUNTS) == 5
        assert max(FIGURE8_SWITCH_COUNTS) == 25

    def test_figure9_grid_spans_paper_range(self):
        assert min(FIGURE9_SWITCH_COUNTS) == 10
        assert max(FIGURE9_SWITCH_COUNTS) == 35

    def test_figure10_lists_all_six_benchmarks(self):
        assert len(FIGURE10_BENCHMARKS) == 6


class TestFigure8:
    def test_reduced_figure8_shape(self):
        data = run_report("figure8", {"switch_counts": [8, 14]})
        assert data["benchmark"] == "D26_media"
        assert len(data["resource_ordering_vcs"]) == 2
        for ordering, removal in zip(
            data["resource_ordering_vcs"], data["deadlock_removal_vcs"]
        ):
            assert removal <= ordering


class TestFigure9:
    def test_reduced_figure9_shape(self):
        data = run_report("figure9", {"switch_counts": [14, 22]})
        assert data["benchmark"] == "D36_8"
        for ordering, removal in zip(
            data["resource_ordering_vcs"], data["deadlock_removal_vcs"]
        ):
            assert removal < ordering
        # Ordering overhead grows with the switch count (longer routes).
        assert data["resource_ordering_vcs"][1] > data["resource_ordering_vcs"][0]


class TestFigure10:
    def test_reduced_figure10_shape(self):
        data = run_report(
            "figure10", {"benchmarks": ["D26_media", "D36_8"], "switch_count": 10}
        )
        assert data["deadlock_removal_normalised_power"] == [1.0, 1.0]
        assert all(v >= 1.0 for v in data["resource_ordering_normalised_power"])
        assert data["average_power_saving_percent"] >= 0


class TestClaims:
    def test_area_savings_table_reduced(self):
        data = run_report("area", {"benchmarks": ["D36_8"], "switch_count": 14})
        assert data["ordering_extra_vcs"][0] > data["removal_extra_vcs"][0]
        assert data["average_vc_reduction_percent"] > 50
        assert data["average_area_saving_percent"] > 0

    def test_overhead_vs_unprotected_reduced(self):
        data = run_report("overhead", {"benchmarks": ["D36_8"], "switch_count": 14})
        assert data["average_power_overhead_percent"] < 10
        assert data["average_area_overhead_percent"] < 10

    def test_runtime_scaling_reduced(self):
        record = Runner().run_spec(RunSpec(benchmark="D26_media", switch_count=10))
        assert 0 < record.removal_runtime_s < 60
