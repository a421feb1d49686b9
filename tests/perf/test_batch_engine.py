"""The batched numpy engine reproduces the compiled engine exactly, per lane.

``run_batch`` advances B simulations of one design through injection as a
single structure-of-arrays program, then drains each lane on a compiled
network; every lane must produce **field-identical**
:class:`~repro.simulation.stats.SimulationStats` to what
``CompiledSimulator(design, config).run(...)`` yields for that lane's
config — delivered flits and packets, the full latency list (order
included), per-channel busy cycles, and the deadlock verdict with the
exact channels on the wait cycle.  Since a lane's drain is the compiled
engine's own drain, the multi-lane suites also compare against
``legacy``, which shares no network code with either.  The suite sweeps
hand-built fixtures, a hypothesis grid of topology families x scenarios x
loads, mixed-lane batches, pins the state a lane hands over at the end of
injection field by field, and pins the registry contract (B = 1
``"batched"`` simulator), the fault-schedule fallback and the lazy numpy
import error.
"""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import simulation_engines
from repro.benchmarks.synthetic import default_mesh_traffic, default_ring_traffic
from repro.core.removal import remove_deadlocks
from repro.errors import SimulationError
from repro.examples_data.paper_ring import paper_ring_design
from repro.perf import batch_engine
from repro.perf.batch_engine import BatchedSimulator, run_batch
from repro.perf.sim_engine import CompiledSimulator
from repro.simulation.events import EventSchedule
from repro.simulation.simulator import (
    SimulationConfig,
    build_simulator,
    make_traffic_generator,
    simulate_design,
    stats_divergences,
)
from repro.simulation.stats import SimulationStats
from repro.synthesis.families import family_design

SCENARIOS = ("flows", "uniform", "hotspot", "transpose", "bursty")
#: Reference engines of the multi-lane suites: ``compiled`` runs the very
#: drain a lane hands over to, ``legacy`` checks that drain independently.
BOTH_REFERENCES = ("compiled", "legacy")


def assert_lane_identical(batched, config, design, max_cycles, engines=("compiled",)):
    for engine in engines:
        reference = build_simulator(design, config, engine=engine).run(max_cycles)
        problems = stats_divergences(batched, reference)
        assert not problems, (engine, problems)


class TestRegistry:
    def test_batched_engine_registered(self):
        assert "batched" in simulation_engines.names()

    def test_build_simulator_returns_batched(self, small_mesh_design):
        simulator = build_simulator(
            small_mesh_design, SimulationConfig(injection_scale=1.0), engine="batched"
        )
        assert isinstance(simulator, BatchedSimulator)


class TestSingleLaneEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_mesh_all_scenarios(self, scenario, small_mesh_design):
        design = small_mesh_design
        config = SimulationConfig(
            injection_scale=3.0, seed=2, traffic_scenario=scenario
        )
        stats = BatchedSimulator(design, config).run(600)
        assert_lane_identical(stats, config, design, 600)
        assert stats.packets_delivered > 0

    def test_deadlock_verdict_and_channels_identical(self):
        """An unprotected ring under pressure deadlocks identically."""
        design = paper_ring_design()
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
        reference = CompiledSimulator(design, config).run(4000)
        stats = BatchedSimulator(design, config).run(4000)
        assert reference.deadlock_detected
        assert not stats_divergences(stats, reference)
        assert stats.deadlocked_channels == reference.deadlocked_channels
        assert stats.deadlock_cycle == reference.deadlock_cycle

    def test_protected_ring_survives(self):
        design = remove_deadlocks(paper_ring_design()).design
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
        stats = BatchedSimulator(design, config).run(4000)
        assert not stats.deadlock_detected
        assert_lane_identical(stats, config, design, 4000)

    def test_simulate_design_engine_flag(self, small_mesh_design):
        config = SimulationConfig(injection_scale=1.5, seed=3)
        batched = simulate_design(
            small_mesh_design, max_cycles=300, config=config, engine="batched"
        )
        compiled = simulate_design(
            small_mesh_design, max_cycles=300, config=config, engine="compiled"
        )
        assert batched == compiled


class TestMultiLaneEquivalence:
    def test_mixed_lanes_one_program(self, small_mesh_design):
        """Scales, seeds and scenarios vary freely across the lanes."""
        configs = [
            SimulationConfig(injection_scale=0.5, seed=0),
            SimulationConfig(injection_scale=2.0, seed=1),
            SimulationConfig(injection_scale=1.0, seed=2, traffic_scenario="uniform"),
            SimulationConfig(injection_scale=4.0, seed=3, traffic_scenario="hotspot"),
            SimulationConfig(injection_scale=1.5, seed=4, traffic_scenario="bursty"),
        ]
        stats_list = run_batch(small_mesh_design, configs, max_cycles=400)
        assert len(stats_list) == len(configs)
        for stats, config in zip(stats_list, configs):
            assert_lane_identical(stats, config, small_mesh_design, 400, BOTH_REFERENCES)

    def test_deadlocking_and_surviving_lanes_coexist(self):
        """A lane deadlocking must not perturb its batch neighbours."""
        design = paper_ring_design()
        configs = [
            SimulationConfig(injection_scale=0.25, buffer_depth=2, seed=0),
            SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1),
        ]
        stats_list = run_batch(design, configs, max_cycles=4000)
        assert stats_list[1].deadlock_detected
        for stats, config in zip(stats_list, configs):
            assert_lane_identical(stats, config, design, 4000, BOTH_REFERENCES)

    def test_injection_deadlock_and_drain_handoff_meet(self):
        """One lane deadlocks during injection and is compacted away; the
        others hand over to compiled networks, one of them to deadlock in
        its drain.  Lane order and every verdict must survive both."""
        design = paper_ring_design()
        max_cycles = 450
        configs = [
            SimulationConfig(injection_scale=5.0, buffer_depth=2, seed=3),
            SimulationConfig(injection_scale=3.0, buffer_depth=2, seed=1),
            SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1),
            SimulationConfig(injection_scale=4.0, buffer_depth=2, seed=0),
        ]
        stats_list = run_batch(design, configs, max_cycles=max_cycles)
        compacted, drained, drain_deadlock, also_drained = stats_list
        assert compacted.deadlock_cycle < max_cycles
        assert drain_deadlock.deadlock_cycle > max_cycles
        for stats in (drained, also_drained):
            assert not stats.deadlock_detected
            assert stats.cycles_run > max_cycles  # flits were still in flight
        for stats, config in zip(stats_list, configs):
            assert_lane_identical(stats, config, design, max_cycles, BOTH_REFERENCES)

    def test_lane_count_one_matches_solo(self, small_ring_design):
        config = SimulationConfig(injection_scale=2.0, seed=5)
        (stats,) = run_batch(small_ring_design, [config], max_cycles=500)
        assert_lane_identical(stats, config, small_ring_design, 500)

    @settings(max_examples=20, deadline=None)
    @given(
        family=st.sampled_from(["ring", "biring", "mesh", "protected_ring"]),
        size=st.integers(min_value=4, max_value=7),
        scales=st.lists(
            st.sampled_from([0.5, 1.5, 4.0, 8.0]), min_size=1, max_size=4
        ),
        depth=st.integers(min_value=1, max_value=4),
        scenario=st.sampled_from(SCENARIOS),
    )
    def test_random_grids_identical(self, family, size, scales, depth, scenario):
        if family == "mesh":
            mesh = {"rows": 2, "cols": size - 2}
            traffic = default_mesh_traffic(2, size - 2)
            design = family_design("mesh", traffic, mesh, name=f"mesh2x{size - 2}")
        else:
            ring = {"n_switches": size, "bidirectional": family == "biring"}
            design = family_design("ring", default_ring_traffic(size), ring, name=f"ring{size}")
            if family == "protected_ring":
                design = remove_deadlocks(design).design
        configs = [
            SimulationConfig(
                injection_scale=scale,
                buffer_depth=depth,
                seed=lane,
                traffic_scenario=scenario,
            )
            for lane, scale in enumerate(scales)
        ]
        stats_list = run_batch(design, configs, max_cycles=400)
        for stats, config in zip(stats_list, configs):
            assert_lane_identical(stats, config, design, 400, BOTH_REFERENCES)


class TestDrainHandoff:
    """A lane hands a compiled network exactly the state a solo run has."""

    @staticmethod
    def _inject(design, configs, cycles):
        generators = [make_traffic_generator(design, config) for config in configs]
        stats = [SimulationStats(design_name=design.name) for _ in configs]
        program = batch_engine._BatchProgram(design, configs, generators, stats)
        assert program._inject_all(cycles) == cycles
        assert program.B == len(configs)  # no lane finished early
        return program

    @pytest.mark.parametrize("case", ["paper_ring", "d36_8_removal"])
    def test_lane_network_equals_compiled_after_injection(self, case, d36_8_design_14sw):
        if case == "paper_ring":
            # Scale 6 (seed 1) has been stuck for 88 cycles at cycle 400,
            # 112 short of its watchdog; scale 1 has one flit in flight.
            design, cycles, depth = paper_ring_design(), 400, 2
            lanes = ((6.0, 1), (1.0, 0))
        else:
            design, cycles, depth = remove_deadlocks(d36_8_design_14sw).design, 200, 4
            lanes = ((0.5, 0), (4.0, 1), (8.0, 2))
        configs = [
            SimulationConfig(injection_scale=scale, buffer_depth=depth, seed=seed)
            for scale, seed in lanes
        ]
        program = self._inject(design, configs, cycles)
        idle = []
        for lane, config in enumerate(configs):
            mine = program.lane_network(lane)
            solo = CompiledSimulator(design, config)
            solo.run(cycles, drain=False)
            theirs = solo.network
            for name in (
                "buf_pkt", "buf_lo", "buf_hi", "buf_hops",
                "out_owner", "out_src", "alloc_ptr", "link_ptr",
                "req", "r_flits", "inj_head_idx",
                "pkt_flow", "pkt_size", "pkt_created", "busy",
            ):
                assert getattr(mine, name) == getattr(theirs, name), (lane, name)
            assert [list(q) for q in mine.inj_pkts] == [list(q) for q in theirs.inj_pkts]
            assert mine.flits_in_network() == theirs.flits_in_network()
            assert mine.flits_pending_injection() == theirs.flits_pending_injection()
            assert mine.undelivered_flits == theirs.undelivered_flits
            assert program.idle[lane] == solo.monitor.idle_cycles
            idle.append(solo.monitor.idle_cycles)
            assert theirs.undelivered_flits > 0  # something left to drain
        if case == "paper_ring":
            assert idle[0] > 0  # the watchdog count crosses over too


class TestCrossCheckFlag:
    def test_cross_check_passes(self, d36_8_design_14sw):
        design = remove_deadlocks(d36_8_design_14sw).design
        stats = simulate_design(
            design,
            max_cycles=300,
            config=SimulationConfig(injection_scale=2.0, seed=0),
            engine="batched",
            cross_check=True,
        )
        assert stats.packets_delivered > 0

    def test_cross_check_raises_on_divergence(self, small_mesh_design, monkeypatch):
        """A rigged compiled reference must be caught lane by lane."""
        original = CompiledSimulator.run

        def rigged(self, max_cycles=10_000, **kwargs):
            stats = original(self, max_cycles, **kwargs)
            stats.flits_delivered += 1
            return stats

        monkeypatch.setattr(CompiledSimulator, "run", rigged)
        with pytest.raises(SimulationError, match="diverged"):
            run_batch(
                small_mesh_design,
                [SimulationConfig(injection_scale=2.0)],
                max_cycles=200,
                cross_check=True,
            )


class TestBatchRejections:
    def test_empty_batch_rejected(self, small_mesh_design):
        with pytest.raises(SimulationError, match="at least one"):
            run_batch(small_mesh_design, [], max_cycles=100)

    def test_mixed_buffer_depth_rejected(self, small_mesh_design):
        configs = [
            SimulationConfig(injection_scale=1.0, buffer_depth=2),
            SimulationConfig(injection_scale=1.0, buffer_depth=4),
        ]
        with pytest.raises(SimulationError, match="buffer_depth"):
            run_batch(small_mesh_design, configs, max_cycles=100)

    def test_fault_schedule_rejected_in_batch(self, small_mesh_design):
        schedule = EventSchedule.random(
            small_mesh_design.topology, seed=1, link_failures=1
        )
        configs = [SimulationConfig(injection_scale=1.0, fault_schedule=schedule)]
        with pytest.raises(SimulationError, match="fault"):
            run_batch(small_mesh_design, configs, max_cycles=100)


class TestFaultScheduleFallback:
    def _schedule(self, design):
        return EventSchedule.random(
            design.topology, seed=1, link_failures=1, start_cycle=40, end_cycle=200
        )

    def test_constructor_falls_back_with_structured_warning(self, small_mesh_design):
        config = SimulationConfig(
            injection_scale=1.0, fault_schedule=self._schedule(small_mesh_design)
        )
        with pytest.warns(RuntimeWarning, match=r"batched-engine-fallback"):
            simulator = BatchedSimulator(small_mesh_design, config)
        assert isinstance(simulator, CompiledSimulator)
        assert not isinstance(simulator, BatchedSimulator)

    def test_warning_payload_is_structured(self, small_mesh_design):
        config = SimulationConfig(
            injection_scale=1.0, fault_schedule=self._schedule(small_mesh_design)
        )
        with pytest.warns(RuntimeWarning, match=r"\[noc-lint \{") as captured:
            BatchedSimulator(small_mesh_design, config)
        assert any("batched-engine-fallback" in str(w.message) for w in captured)

    def test_fallback_results_correct(self, small_mesh_design):
        """The fallback simulator's verdict matches a compiled run exactly."""
        config = SimulationConfig(
            injection_scale=1.5, seed=2, fault_schedule=self._schedule(small_mesh_design)
        )
        with pytest.warns(RuntimeWarning):
            stats = BatchedSimulator(small_mesh_design, config).run(400)
        reference = CompiledSimulator(small_mesh_design, config).run(400)
        assert not stats_divergences(stats, reference)
        assert stats.fault_events_applied > 0


class TestLazyNumpyImport:
    def test_missing_numpy_raises_clear_error(self, small_mesh_design, monkeypatch):
        """Without numpy the 'batched' engine must name the dependency."""
        monkeypatch.setattr(batch_engine, "_np", None)
        monkeypatch.setitem(sys.modules, "numpy", None)  # import numpy -> ImportError
        config = SimulationConfig(injection_scale=1.0)
        with pytest.raises(SimulationError, match="numpy"):
            BatchedSimulator(small_mesh_design, config).run(100)

    def test_other_engines_unaffected_by_missing_numpy(
        self, small_mesh_design, monkeypatch
    ):
        monkeypatch.setattr(batch_engine, "_np", None)
        monkeypatch.setitem(sys.modules, "numpy", None)
        config = SimulationConfig(injection_scale=1.0)
        stats = simulate_design(
            small_mesh_design, max_cycles=100, config=config, engine="compiled"
        )
        assert stats.flits_delivered > 0
