"""Tests for the topology-family axis of RunSpec and the scale report."""

from __future__ import annotations

import pytest

from repro.api.reports import DEFAULT_SCALE_POINTS, report_types, run_report
from repro.api.runner import execute_spec
from repro.api.spec import ExperimentPlan, RunSpec
from repro.errors import PlanError


class TestFamilySpecFields:
    def test_baseline_spec_dict_unchanged(self):
        """Specs without the new axes serialize exactly as before PR 8."""
        spec = RunSpec(benchmark="D36_8", switch_count=14)
        assert sorted(spec.to_dict()) == [
            "benchmark",
            "engine",
            "ordering_strategy",
            "routing_engine",
            "seed",
            "switch_count",
            "synthesis",
            "synthesis_backend",
        ]

    def test_family_fields_round_trip(self):
        spec = RunSpec(
            benchmark="uniform_c18_f2",
            switch_count=9,
            topology_family="torus",
            family_params={"rows": 3, "cols": 3},
            traffic_scenario="trace",
            scenario_params={"trace_cycles": 500},
            injection_scale=0.5,
        )
        clone = RunSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.fingerprint() == spec.fingerprint()

    def test_family_changes_both_fingerprints(self):
        plain = RunSpec(benchmark="D36_8", switch_count=9)
        family = RunSpec(
            benchmark="D36_8",
            switch_count=9,
            topology_family="torus",
            family_params={"rows": 3, "cols": 3},
        )
        assert family.fingerprint() != plain.fingerprint()
        assert family.cost_fingerprint() != plain.cost_fingerprint()

    def test_backend_flips_to_family_automatically(self):
        spec = RunSpec(
            benchmark="D36_8",
            switch_count=9,
            topology_family="torus",
            family_params={"rows": 3, "cols": 3},
        )
        assert spec.synthesis_backend == "family"

    def test_family_params_without_family_rejected(self):
        with pytest.raises(PlanError, match="family_params"):
            RunSpec(
                benchmark="D36_8", switch_count=9, family_params={"rows": 3}
            )

    def test_family_backend_without_family_rejected(self):
        with pytest.raises(PlanError, match="topology_family"):
            RunSpec(benchmark="D36_8", switch_count=9, synthesis_backend="family")

    def test_grid_entries_expand_family_fields(self):
        plan = ExperimentPlan.from_dict(
            {
                "name": "family-grid",
                "runs": [
                    {
                        "benchmark": "uniform_c10_f2",
                        "switch_counts": [5],
                        "topology_family": "fat_tree",
                        "family_params": {"k": 2},
                    }
                ],
            }
        )
        specs = plan.all_specs()
        assert len(specs) == 1
        assert specs[0].topology_family == "fat_tree"
        assert specs[0].family_params == {"k": 2}

    def test_execute_family_spec_end_to_end(self):
        result = execute_spec(
            RunSpec(
                benchmark="uniform_c10_f2",
                switch_count=5,
                topology_family="fat_tree",
                family_params={"k": 2},
                injection_scale=0.5,
                sim_cycles=400,
                traffic_scenario="trace",
                scenario_params={"trace_cycles": 400},
            )
        )
        assert result.simulation["scenario_params"] == {"trace_cycles": 400}
        assert result.simulation["variants"]["removal"]["packets_delivered"] >= 0


class TestScaleReport:
    def test_registered(self):
        assert "scale" in report_types

    def test_specs_follow_points(self):
        report = report_types.get("scale")
        specs = report.specs({"family": "fat_tree", "points": [{"k": 2}, {"k": 4}]})
        assert [spec.switch_count for spec in specs] == [5, 20]
        assert all(spec.topology_family == "fat_tree" for spec in specs)
        assert [spec.benchmark for spec in specs] == [
            "uniform_c10_f2",
            "uniform_c40_f2",
        ]

    def test_missing_family_rejected(self):
        with pytest.raises(PlanError, match="family"):
            report_types.get("scale").specs({})

    def test_unknown_family_without_points_rejected(self):
        with pytest.raises(PlanError, match="points"):
            report_types.get("scale").specs({"family": "hypercube"})

    @pytest.mark.parametrize(
        "params, named",
        [
            ({"family": 3}, "family must be a non-empty string, got 3"),
            ({"family": "ring", "points": []}, "points must be a non-empty list, got []"),
            ({"family": "ring", "points": "k"}, "points must be a list or null, got 'k'"),
        ],
    )
    def test_malformed_family_or_points_rejected(self, params, named):
        with pytest.raises(PlanError) as caught:
            report_types.get("scale").specs(params)
        assert named in str(caught.value)

    def test_default_points_cover_every_family(self):
        report = report_types.get("scale")
        for family in ("ring", "mesh", "torus", "fat_tree", "clos", "vl2", "dragonfly"):
            assert family in DEFAULT_SCALE_POINTS
            assert len(report.specs({"family": family})) >= 3

    def test_render_produces_curves(self):
        document = run_report(
            "scale",
            {
                "family": "torus",
                "points": [{"rows": 3, "cols": 3}],
                "injection_scale": 0.5,
                "sim_cycles": 400,
            },
        )
        assert document["family"] == "torus"
        assert document["sizes"] == [9]
        assert len(document["removal_runtime_s"]) == 1
        for variant in ("unprotected", "removal", "ordering"):
            curves = document["variants"][variant]
            assert len(curves["average_latency"]) == 1
            assert isinstance(curves["saturated"][0], bool)
