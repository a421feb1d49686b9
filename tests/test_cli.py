"""Tests for the command-line interface (repro.cli)."""

import json

import pytest

from repro.cli import main
from repro.examples_data.paper_ring import paper_ring_design
from repro.model.serialization import load_design, save_design


@pytest.fixture
def ring_file(tmp_path):
    return save_design(paper_ring_design(), tmp_path / "ring.json")


class TestAnalyze:
    def test_analyze_reports_cycle(self, ring_file, capsys):
        assert main(["analyze", str(ring_file)]) == 0
        out = capsys.readouterr().out
        assert "deadlock free    : NO" in out
        assert "cycles           : 1\n" in out
        assert "smallest cycle" in out

    def test_analyze_strict_fails_on_cyclic_design(self, ring_file):
        assert main(["analyze", "--strict", str(ring_file)]) == 1

    def test_analyze_acyclic_design(self, tmp_path, capsys, simple_line_design):
        path = save_design(simple_line_design, tmp_path / "line.json")
        assert main(["analyze", "--strict", str(path)]) == 0
        assert "deadlock free    : yes" in capsys.readouterr().out

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        assert main(["analyze", str(tmp_path / "none.json")]) == 2
        assert "error" in capsys.readouterr().err


class TestRemoveAndOrdering:
    def test_remove_writes_deadlock_free_design(self, ring_file, tmp_path, capsys):
        out_path = tmp_path / "fixed.json"
        assert main(["remove", str(ring_file), "-o", str(out_path)]) == 0
        fixed = load_design(out_path)
        from repro.core.cdg import build_cdg

        assert build_cdg(fixed).is_acyclic()
        assert fixed.extra_vc_count == 1
        assert "virtual channels added" in capsys.readouterr().out

    def test_ordering_writes_design(self, ring_file, tmp_path, capsys):
        out_path = tmp_path / "ordered.json"
        assert main(["ordering", str(ring_file), "-o", str(out_path)]) == 0
        ordered = load_design(out_path)
        assert ordered.extra_vc_count == 3
        assert "extra VC" in capsys.readouterr().out

    def test_ordering_layered_strategy(self, ring_file, capsys):
        assert main(["ordering", str(ring_file), "--strategy", "layered"]) == 0


class TestSynthesizeAndSimulate:
    def test_synthesize_benchmark(self, tmp_path, capsys):
        out_path = tmp_path / "d26.json"
        assert main(
            ["synthesize", "D26_media", "--switches", "8", "-o", str(out_path)]
        ) == 0
        design = load_design(out_path)
        assert design.topology.switch_count == 8
        assert "mW" in capsys.readouterr().out

    def test_synthesize_unknown_benchmark_fails_cleanly(self, capsys):
        assert main(["synthesize", "D99"]) == 2
        assert "error" in capsys.readouterr().err

    def test_simulate_design(self, ring_file, capsys):
        code = main(
            ["simulate", str(ring_file), "--cycles", "500", "--injection-scale", "0.5"]
        )
        out = capsys.readouterr().out
        assert "packets injected" in out
        assert code in (0, 1)

    def test_simulate_detects_deadlock_exit_code(self, ring_file):
        code = main(
            [
                "simulate",
                str(ring_file),
                "--cycles",
                "5000",
                "--injection-scale",
                "6.0",
                "--buffer-depth",
                "2",
                "--seed",
                "1",
            ]
        )
        assert code == 1


class TestSimulateFaults:
    """``simulate`` puts its fault flags into the run's SimulationConfig."""

    @pytest.fixture
    def protected_ring_file(self, tmp_path):
        from repro.core.removal import remove_deadlocks

        design = remove_deadlocks(paper_ring_design()).design
        return save_design(design, tmp_path / "protected_ring.json")

    SCHEDULE = {
        "events": [
            {"cycle": 50, "action": "fail_link", "link": {"src": "SW1", "dst": "SW2"}},
            {"cycle": 150, "action": "restore_link", "link": {"src": "SW1", "dst": "SW2"}},
        ]
    }

    def _simulate(self, design_file, *flags, cycles=400):
        return main(
            ["simulate", str(design_file), "--cycles", str(cycles), "--injection-scale", "0.5",
             *flags]
        )

    def test_inline_schedule_with_idle_recovery(self, protected_ring_file, capsys):
        code = self._simulate(
            protected_ring_file,
            "--fault-schedule", json.dumps(self.SCHEDULE),
            "--recovery-policy", "idle",
            "--cross-check",
        )
        assert code == 0
        assert "fault events      : 2" in capsys.readouterr().out

    def test_schedule_file_with_idle_recovery(self, protected_ring_file, tmp_path, capsys):
        schedule_file = tmp_path / "schedule.json"
        schedule_file.write_text(json.dumps(self.SCHEDULE))
        code = self._simulate(
            protected_ring_file,
            "--fault-schedule", str(schedule_file),
            "--recovery-policy", "idle",
            "--cross-check",
        )
        assert code == 0
        assert "fault events      : 2" in capsys.readouterr().out

    def test_fault_model_with_params(self, protected_ring_file, capsys):
        code = self._simulate(
            protected_ring_file,
            "--fault-model", "spatial_burst",
            "--fault-params", '{"radius": 1}',
            cycles=1000,
        )
        assert code == 0
        assert "fault events" in capsys.readouterr().out

    def test_missing_link_is_a_clean_error(self, protected_ring_file, capsys):
        schedule = {
            "events": [{"cycle": 10, "action": "fail_link", "link": {"src": "SW2", "dst": "SW1"}}]
        }
        code = self._simulate(protected_ring_file, "--fault-schedule", json.dumps(schedule))
        assert code == 2
        assert "targets link SW2->SW1 (index 0), which does not exist" in capsys.readouterr().err

    def test_missing_schedule_file_is_a_clean_error(self, protected_ring_file, tmp_path, capsys):
        missing = tmp_path / "no_such_schedule.json"
        code = self._simulate(protected_ring_file, "--fault-schedule", str(missing))
        assert code == 2
        assert f"error: could not read fault schedule from {missing}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--injection-scale", "-1"), "injection_scale must be positive"),
            (("--buffer-depth", "0"), "buffer_depth must be at least 1"),
            (("--injection-scale", "nan"), "injection_scale must be positive"),
            (("--cycles", "-5"), "simulation run: max_cycles must be at least 1, got -5"),
            (("--cycles", "0"), "simulation run: max_cycles must be at least 1, got 0"),
        ],
    )
    def test_settings_no_network_can_run_are_rejected(self, ring_file, flags, named, capsys):
        code = main(["simulate", str(ring_file), "--cycles", "100", *flags])
        assert code == 2
        assert named in capsys.readouterr().err


class TestListing:
    def test_benchmarks_listing(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        for name in ("D26_media", "D36_8", "D38_tvopd"):
            assert name in out

    def test_figures_10_json_output(self, capsys):
        assert main(["figures", "10"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["switch_count"] == 14
        assert len(data["benchmarks"]) == 6


class TestTypedErrors:
    """Malformed input and failed writes exit 2 with ``error:``; a deadlock exits 1.

    A script driving ``simulate`` must be able to tell a typo (exit 2)
    from a design that deadlocks (exit 1).
    """

    @staticmethod
    def _assert_clean_error(code, capsys, named):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error:")
        assert named in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--fault-schedule", "{bad"), "invalid fault schedule JSON"),
            (("--fault-model", "uniform", "--fault-params", "{bad"), "invalid --fault-params JSON"),
            (("--fault-model", "uniform", "--fault-params", "[1]"), "must be a JSON object"),
            (("--fault-params", "{}"), "--fault-params needs --fault-model"),
            (("--scenario-params", "{bad"), "invalid --scenario-params JSON"),
            (("--scenario-params", '{"bogus": 1}'), "traffic scenario 'flows'"),
            (
                ("--traffic-scenario", "hotspot", "--scenario-params", '{"factor": "x"}'),
                "traffic scenario 'hotspot'",
            ),
            # Each knob outside its declared domain, named with its owner.
            (
                ("--fault-model", "mtbf", "--fault-params", '{"mtbf": NaN}'),
                "fault model 'mtbf': mtbf must be positive and finite, got nan",
            ),
            (
                ("--fault-model", "mtbf", "--fault-params", '{"mttr": NaN}'),
                "fault model 'mtbf': mttr must be positive and finite, got nan",
            ),
            (
                ("--fault-model", "mtbf", "--fault-params", '{"mtbf": Infinity}'),
                "fault model 'mtbf': mtbf must be positive and finite, got inf",
            ),
            (
                ("--fault-model", "uniform", "--fault-params", '{"start_cycle": NaN}'),
                "fault model 'uniform': start_cycle must be an integer, got nan",
            ),
            (
                ("--fault-model", "uniform", "--fault-params", '{"link_failures": -3}'),
                "fault model 'uniform': link_failures must be non-negative, got -3",
            ),
            (
                ("--fault-model", "cascade", "--fault-params", '{"failures": -3}'),
                "fault model 'cascade': failures must be non-negative, got -3",
            ),
            (
                ("--fault-model", "spatial_burst", "--fault-params", '{"bursts": -1}'),
                "fault model 'spatial_burst': bursts must be non-negative, got -1",
            ),
            (
                ("--fault-model", "uniform", "--fault-params", '{"link_failures": 2.5}'),
                "fault model 'uniform': link_failures must be an integer, got 2.5",
            ),
            (
                ("--traffic-scenario", "hotspot", "--scenario-params", '{"factor": NaN}'),
                "traffic scenario 'hotspot': factor must be positive and finite, got nan",
            ),
            (
                ("--traffic-scenario", "transpose", "--scenario-params", '{"off_factor": NaN}'),
                "traffic scenario 'transpose': off_factor must be non-negative and finite, got nan",
            ),
            (
                ("--traffic-scenario", "bursty", "--scenario-params", '{"burst_length": NaN}'),
                "traffic scenario 'bursty': burst_length must be at least 1 and finite, got nan",
            ),
        ],
    )
    def test_simulate_input_errors(self, ring_file, flags, named, capsys):
        code = main(["simulate", str(ring_file), "--cycles", "100", *flags])
        self._assert_clean_error(code, capsys, named)

    @pytest.mark.parametrize(
        "flags, named",
        [
            (("--family-params", "{bad"), "invalid --family-params JSON"),
            (("--family-params", "{}"), "--family-params needs --topology-family"),
        ],
    )
    def test_synthesize_input_errors(self, flags, named, capsys):
        code = main(["synthesize", "D26_media", "--switches", "6", *flags])
        self._assert_clean_error(code, capsys, named)

    def test_plan_scenario_params_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {
                    "name": "bogus-scenario",
                    "runs": [
                        {
                            "benchmark": "D26_media",
                            "switch_count": 6,
                            "injection_scale": 1.0,
                            "sim_cycles": 100,
                            "scenario_params": {"bogus": 1},
                        }
                    ],
                }
            )
        )
        code = main(["run", str(plan), "--no-cache"])
        self._assert_clean_error(code, capsys, "traffic scenario 'flows'")

    @pytest.mark.parametrize(
        "params, named",
        [
            (
                {"traffic_scenario": "hotspot", "scenario_params": {"factor": float("nan")}},
                "traffic scenario 'hotspot': factor must be positive and finite, got nan",
            ),
            (
                {"fault_model": "mtbf", "fault_params": {"mtbf": float("nan")}},
                "fault model 'mtbf': mtbf must be positive and finite, got nan",
            ),
        ],
    )
    def test_plan_params_out_of_domain(self, tmp_path, capsys, params, named):
        plan = tmp_path / "plan.json"
        run = {"benchmark": "D26_media", "switch_count": 6, "injection_scale": 1.0, **params}
        plan.write_text(json.dumps({"name": "out-of-domain", "runs": [{**run, "sim_cycles": 100}]}))
        code = main(["run", str(plan), "--no-cache"])
        self._assert_clean_error(code, capsys, named)

    #: Small settings of each report, so that a request the report wrongly
    #: accepts runs in about a second.
    SMALL_REPORTS = {
        "latency": {"benchmark": "D26_media", "switch_count": 6, "sim_cycles": 100},
        "availability": {
            "benchmark": "D26_media", "switch_count": 6, "sim_cycles": 100,
            "recovery_policies": ["removal"], "seeds": [0],
        },
        "figure10": {"switch_count": 6},
    }

    @pytest.mark.parametrize(
        "report, params, named",
        [
            ("latency", {"injection_scales": 5},
             "report 'latency': injection_scales must be a list, got 5"),
            ("figure9", {"switch_counts": 10},
             "report 'figure9': switch_counts must be a list, got 10"),
            ("availability", {"recovery_policies": 3},
             "report 'availability': recovery_policies must be a list, got 3"),
            ("availability", {"fault_params": [1, 2]},
             "report 'availability': fault_params must be a mapping, got [1, 2]"),
            ("scale", {"family": "ring", "points": [1]},
             "topology family 'ring' must be a mapping, got int"),
            # Exited 0 with a delivered fraction of 0.0 for the unknown variant.
            ("availability", {"variant": "nosuch"},
             "report 'availability': variant must be one of 'unprotected', 'removal', "
             "'ordering', got 'nosuch'"),
            # Strings, once read as lists of their characters.
            ("figure10", {"benchmarks": "D36_8"},
             "report 'figure10': benchmarks must be a list, got 'D36_8'"),
            ("availability", {"seeds": "ab"},
             "report 'availability': seeds must be a list, got 'ab'"),
            ("latency", {"injection_scales": "ab"},
             "report 'latency': injection_scales must be a list, got 'ab'"),
        ],
    )
    def test_report_parameter_out_of_domain(self, tmp_path, capsys, report, params, named):
        plan = tmp_path / "plan.json"
        request = {"type": report, **self.SMALL_REPORTS.get(report, {}), **params}
        plan.write_text(json.dumps({"name": "bad-report", "reports": [request]}))
        code = main(["run", str(plan), "--no-cache"])
        self._assert_clean_error(code, capsys, named)

    def test_run_output_write_error(self, tmp_path, capsys):
        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps({"name": "costs", "runs": [{"benchmark": "D26_media", "switch_count": 6}]})
        )
        target = tmp_path / "missing" / "out.json"
        code = main(["run", str(plan), "--no-cache", "-o", str(target)])
        self._assert_clean_error(code, capsys, f"could not write {target}")

    def test_export_output_write_error(self, ring_file, tmp_path, capsys):
        target = tmp_path / "missing" / "ring.dot"
        code = main(["export", str(ring_file), "topology", "-o", str(target)])
        self._assert_clean_error(code, capsys, f"could not write {target}")

    def test_deadlocking_simulation_still_exits_1(self, ring_file, capsys):
        code = main(
            ["simulate", str(ring_file), "--cycles", "5000", "--injection-scale", "6.0",
             "--buffer-depth", "2", "--seed", "1", "--scenario-params", "{}"]
        )
        assert code == 1
        assert "error" not in capsys.readouterr().err
