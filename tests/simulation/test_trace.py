"""Tests for trace-driven traffic (repro.simulation.trace)."""

from __future__ import annotations

import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.performance import measure_load_point
from repro.api.registry import traffic_scenarios
from repro.benchmarks.registry import get_benchmark
from repro.errors import SimulationError
from repro.simulation.simulator import SimulationConfig, simulate_design
from repro.simulation.trace import (
    TRACE_FORMAT_VERSION,
    TraceTrafficGenerator,
    load_trace,
    save_trace,
    synthesize_trace,
    validate_trace,
)
from repro.simulation.traffic_gen import FlowTrafficGenerator
from repro.synthesis.builder import SynthesisConfig, synthesize_design


class TestValidateTrace:
    def test_canonicalization_sorts_and_merges(self, small_mesh_design):
        flow = small_mesh_design.traffic.flows[0].name
        other = small_mesh_design.traffic.flows[1].name
        document = {
            "cycles": 10,
            "events": [
                {"cycle": 5, "flow": other},
                {"cycle": 2, "flow": flow, "packets": 1},
                {"cycle": 2, "flow": flow, "packets": 2},
            ],
        }
        canonical = validate_trace(document)
        assert canonical["format_version"] == TRACE_FORMAT_VERSION
        assert canonical["events"] == [
            {"cycle": 2, "flow": flow, "packets": 3},
            {"cycle": 5, "flow": other, "packets": 1},
        ]
        # Any permutation of the same events is the same trace.
        reversed_doc = dict(document)
        reversed_doc["events"] = list(reversed(document["events"]))
        assert validate_trace(reversed_doc) == canonical

    @pytest.mark.parametrize(
        "document, match",
        [
            ({"cycles": 0, "events": []}, "cycles must be at least 1"),
            ({"cycles": 5, "events": [{"cycle": 7, "flow": "f0"}]}, "horizon"),
            ({"cycles": 5, "events": [{"cycle": -1, "flow": "f0"}]}, "non-negative"),
            ({"cycles": 5, "events": [{"cycle": 1, "flow": ""}]}, "non-empty"),
            ({"cycles": 5, "events": [{"cycle": 1, "flow": "f0", "packets": 0}]}, "positive"),
            (
                {"cycles": 5, "events": [{"cycle": 1, "flow": "f0", "pkts": 1}]},
                "trace event: unknown parameter.*pkts",
            ),
            ({"cycles": 5, "events": [], "extra": 1}, "trace: unknown parameter.*extra"),
            ({"cycles": 5, "events": [], "format_version": 99}, "unsupported trace format"),
            ("not a mapping", "must be a mapping"),
            ({"events": []}, "trace: missing required parameter 'cycles'"),
            ({"cycles": 5, "events": [{"flow": "f0"}]}, "missing required parameter 'cycle'"),
            ({"cycles": 5, "events": [{"cycle": 1}]}, "missing required parameter 'flow'"),
        ],
    )
    def test_malformed_traces_rejected(self, document, match):
        with pytest.raises(SimulationError, match=match):
            validate_trace(document)

    def test_unknown_flow_rejected_up_front(self, small_mesh_design):
        with pytest.raises(SimulationError, match="not an eligible flow"):
            TraceTrafficGenerator(
                small_mesh_design,
                trace={"cycles": 5, "events": [{"cycle": 1, "flow": "phantom"}]},
            )


class TestSyntheticTraceEquivalence:
    def test_replay_matches_flows_scenario_packet_for_packet(self, small_mesh_design):
        flows = FlowTrafficGenerator(small_mesh_design, injection_scale=0.8, seed=5)
        trace = TraceTrafficGenerator(
            small_mesh_design, injection_scale=0.8, seed=5, trace_cycles=250
        )
        for cycle in range(250):
            assert flows.fire(cycle) == trace.fire(cycle)

    def test_simulation_stats_identical_to_flows(self, small_mesh_design):
        flows = measure_load_point(
            small_mesh_design, SimulationConfig(injection_scale=0.5, seed=3), max_cycles=400
        )
        trace = measure_load_point(
            small_mesh_design,
            SimulationConfig(
                injection_scale=0.5,
                seed=3,
                traffic_scenario="trace",
                scenario_params={"trace_cycles": 400},
            ),
            max_cycles=400,
        )
        assert trace["packets_delivered"] == flows["packets_delivered"]
        assert trace["average_latency"] == flows["average_latency"]
        assert trace["deadlocked"] == flows["deadlocked"]

    def test_synthetic_trace_is_seed_deterministic(self, small_mesh_design):
        one = synthesize_trace(small_mesh_design, cycles=100, seed=9)
        two = synthesize_trace(small_mesh_design, cycles=100, seed=9)
        other = synthesize_trace(small_mesh_design, cycles=100, seed=10)
        assert one == two
        assert one != other


@functools.lru_cache(maxsize=None)
def _synthesized(benchmark: str, switches: int, seed: int):
    traffic = get_benchmark(benchmark, seed=seed)
    return synthesize_design(traffic, SynthesisConfig(n_switches=switches))


class TestSyntheticTraceIsCanonical:
    """The generator skips re-validating its own trace because of this."""

    @given(
        design=st.sampled_from(
            [("D26_media", 8), ("D36_8", 14), ("D35_bott", 10), ("D38_tvopd", 6)]
        ),
        design_seed=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**32),
        scale=st.floats(min_value=0.01, max_value=16.0),
        cycles=st.integers(min_value=1, max_value=300),
    )
    @settings(max_examples=60, deadline=None)
    def test_validation_leaves_a_synthesized_trace_unchanged(
        self, design, design_seed, seed, scale, cycles
    ):
        document = synthesize_trace(
            _synthesized(*design, design_seed), cycles=cycles, injection_scale=scale, seed=seed
        )
        assert validate_trace(document) == document


class TestExplicitTraces:
    def test_round_trip_through_file(self, small_mesh_design, tmp_path):
        document = synthesize_trace(small_mesh_design, cycles=60, seed=2)
        path = tmp_path / "demand.json"
        save_trace(document, path)
        loaded = load_trace(path)
        assert loaded == validate_trace(document)
        generator = TraceTrafficGenerator(small_mesh_design, trace=str(path))
        assert generator.trace == loaded

    def test_injection_scale_scales_event_counts(self, small_mesh_design):
        flow = small_mesh_design.traffic.flows[0].name
        document = {
            "cycles": 4,
            "events": [{"cycle": 1, "flow": flow, "packets": 10}],
        }
        doubled = TraceTrafficGenerator(
            small_mesh_design, trace=document, injection_scale=2.0
        )
        fired = [name for c in range(4) for name in doubled.fire(c)]
        assert fired == [flow] * 20

    def test_invalid_json_file_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SimulationError, match="invalid trace JSON"):
            load_trace(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SimulationError, match="could not read"):
            load_trace(tmp_path / "absent.json")

    def test_saved_trace_is_canonical_json(self, small_mesh_design, tmp_path):
        flow = small_mesh_design.traffic.flows[0].name
        path = save_trace(
            {"cycles": 3, "events": [{"cycle": 1, "flow": flow}]},
            tmp_path / "t.json",
        )
        on_disk = json.loads(path.read_text())
        assert on_disk["format_version"] == TRACE_FORMAT_VERSION


class TestScenarioRegistration:
    def test_trace_scenario_registered(self):
        assert traffic_scenarios.get("trace") is TraceTrafficGenerator

    def test_offered_load_reflects_trace(self, small_mesh_design):
        generator = TraceTrafficGenerator(
            small_mesh_design, injection_scale=0.5, seed=0, trace_cycles=200
        )
        assert generator.offered_flits_per_cycle > 0

    def test_cross_check_engines_agree_under_trace(self, small_mesh_design):
        config = SimulationConfig(
            injection_scale=0.5,
            seed=1,
            traffic_scenario="trace",
            scenario_params={"trace_cycles": 300},
        )
        # cross_check=True re-runs the legacy engine and raises on any
        # statistics divergence.
        stats = simulate_design(
            small_mesh_design, max_cycles=300, config=config, cross_check=True
        )
        assert stats.packets_delivered >= 0
