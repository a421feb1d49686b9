"""CLI tests for the `run` subcommand and the new removal-engine flags."""

import json

import pytest

from repro.cli import main
from repro.examples_data.paper_ring import paper_ring_design
from repro.model.serialization import save_design


@pytest.fixture
def ring_file(tmp_path):
    return save_design(paper_ring_design(), tmp_path / "ring.json")


def _write_plan(tmp_path, document):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(document))
    return path


class TestRunSubcommand:
    def test_run_plan_prints_rows(self, tmp_path, capsys):
        plan = _write_plan(
            tmp_path,
            {"name": "rows", "runs": [{"benchmark": "D26_media", "switch_counts": [6, 9]}]},
        )
        assert main(["run", str(plan), "--cache-dir", str(tmp_path / "cache")]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [row["switch_count"] for row in rows] == [6, 9]
        assert all(row["benchmark"] == "D26_media" for row in rows)

    def test_second_run_is_served_from_cache(self, tmp_path, capsys):
        plan = _write_plan(
            tmp_path,
            {"name": "cached", "runs": [{"benchmark": "D26_media", "switch_count": 6}]},
        )
        cache = str(tmp_path / "cache")
        assert main(["run", str(plan), "--cache-dir", cache]) == 0
        first = capsys.readouterr()
        assert "0 served from cache" in first.err
        assert main(["run", str(plan), "--cache-dir", cache]) == 0
        second = capsys.readouterr()
        assert "1 served from cache" in second.err
        assert first.out == second.out

    def test_run_figure_report_matches_figures_subcommand(
        self, tmp_path, capsys, monkeypatch
    ):
        """`noc-deadlock run <plan>` must print byte-identical JSON to the
        legacy `figures` subcommand for the same report."""
        from repro.api.reports import report_types

        # The declared default of the figure's switch_counts, shrunk.
        monkeypatch.setattr(type(report_types.get("figure8")), "switch_counts", [6, 9])
        assert main(["figures", "8"]) == 0
        legacy_out = capsys.readouterr().out

        plan = _write_plan(tmp_path, {"name": "fig8", "reports": ["figure8"]})
        assert main(["run", str(plan), "--no-cache"]) == 0
        assert capsys.readouterr().out == legacy_out

    def test_run_writes_output_document(self, tmp_path, capsys):
        plan = _write_plan(
            tmp_path,
            {
                "name": "out",
                "runs": [{"benchmark": "D26_media", "switch_count": 6}],
                "reports": [{"type": "figure8", "switch_counts": [6]}],
            },
        )
        out_path = tmp_path / "results.json"
        assert main(["run", str(plan), "--no-cache", "-o", str(out_path)]) == 0
        document = json.loads(out_path.read_text())
        assert document["plan"]["name"] == "out"
        assert len(document["results"]) == 1
        assert document["reports"][0]["type"] == "figure8"

    def test_missing_plan_is_a_clean_error(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.json")]) == 2
        assert "error" in capsys.readouterr().err

    def test_malformed_plan_is_a_clean_error(self, tmp_path, capsys):
        plan = tmp_path / "bad.json"
        plan.write_text("{not json")
        assert main(["run", str(plan)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_benchmark_in_plan_is_a_clean_error(self, tmp_path, capsys):
        plan = _write_plan(
            tmp_path, {"name": "x", "runs": [{"benchmark": "D99", "switch_count": 6}]}
        )
        assert main(["run", str(plan), "--no-cache"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "synthesis, named",
        [
            ({"extra_link_fracton": 0.2}, "extra_link_fracton"),
            ({"seed": 5}, "'seed' field"),
            ({"extra_link_fraction": "x"}, "extra_link_fraction must be a number"),
            ({"max_switch_degree": "x"}, "max_switch_degree must be an integer"),
            ({"balance_slack": "x"}, "balance_slack must be an integer"),
            ({"congestion_factor": "x"}, "congestion_factor must be a number"),
            ({"congestion_factor": -3.0}, "congestion_factor must be non-negative"),
            ({"extra_link_fraction": float("nan")}, "extra_link_fraction must be non-negative"),
            ({"congestion_factor": float("inf")}, "congestion_factor must be non-negative"),
            ({"balance_slack": -1}, "synthesis: balance_slack must be non-negative, got -1"),
        ],
    )
    def test_bad_synthesis_key_is_a_clean_error(self, tmp_path, capsys, synthesis, named):
        plan = _write_plan(
            tmp_path,
            {
                "name": "x",
                "runs": [{"benchmark": "D26_media", "switch_count": 6, "synthesis": synthesis}],
            },
        )
        assert main(["run", str(plan), "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert named in err

    def test_unwritable_output_fails_before_the_plan_runs(self, tmp_path, capsys, monkeypatch):
        from pathlib import Path

        from repro.api.runner import Runner

        def must_not_run(self, plan):
            raise AssertionError("the plan ran before the -o path was checked")

        monkeypatch.setattr(Runner, "run", must_not_run)
        plan = Path(__file__).resolve().parents[2] / "plans" / "ci_smoke.json"
        target = tmp_path / "missing" / "out.json"
        assert main(["run", str(plan), "--no-cache", "-o", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: could not write {target}")

    def test_removed_report_type_is_a_clean_error(self, tmp_path, capsys):
        plan = _write_plan(tmp_path, {"name": "x", "reports": [{"type": "resilience"}]})
        assert main(["run", str(plan), "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "unknown report type 'resilience'; available: area, availability" in err
        assert "Traceback" not in err

    def test_checked_in_ci_smoke_plan_loads(self):
        from pathlib import Path

        from repro.api.spec import ExperimentPlan

        plans_dir = Path(__file__).resolve().parents[2] / "plans"
        plan = ExperimentPlan.load(plans_dir / "ci_smoke.json")
        assert plan.name == "ci-smoke"
        assert len(plan.all_specs()) == 5

    def test_checked_in_paper_figures_plan_loads(self):
        from pathlib import Path

        from repro.api.spec import ExperimentPlan

        plans_dir = Path(__file__).resolve().parents[2] / "plans"
        plan = ExperimentPlan.load(plans_dir / "paper_figures.json")
        names = [request.type for request in plan.reports]
        assert names == ["figure8", "figure9", "figure10", "area", "overhead"]
        # Figure 10 / area / overhead share their six specs.
        assert len(plan.all_specs()) == len(set(s.fingerprint() for s in plan.all_specs()))


class TestRemoveEngineFlags:
    def test_remove_with_rebuild_engine(self, ring_file, capsys):
        assert main(["remove", str(ring_file), "--engine", "rebuild"]) == 0
        assert "virtual channels added" in capsys.readouterr().out

    def test_remove_with_cross_check(self, ring_file, capsys):
        assert main(["remove", str(ring_file), "--engine", "context", "--cross-check"]) == 0
        assert "virtual channels added" in capsys.readouterr().out

    def test_engines_produce_identical_summaries(self, ring_file, capsys):
        assert main(["remove", str(ring_file), "--engine", "context"]) == 0
        context = capsys.readouterr().out
        assert main(["remove", str(ring_file), "--engine", "rebuild"]) == 0
        rebuild = capsys.readouterr().out

        def stable(text):
            return [line for line in text.splitlines() if "runtime" not in line]

        assert stable(context) == stable(rebuild)

    def test_corrupt_design_json_is_a_clean_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{definitely not json")
        assert main(["analyze", str(path)]) == 2
        err = capsys.readouterr().err
        assert "error" in err and "Traceback" not in err
