"""The batched engine runs each lane exactly as a solo compiled run.

``run_batch`` runs B simulations of one design as compiled lanes, one
after another; lanes that would draw the same Bernoulli doubles fire from
one shared stream, swept once when their rates agree and ranked once
when they do not.  Every lane must produce **field-identical**
:class:`~repro.simulation.stats.SimulationStats` to a solo run of its
config: latency lists in order, per-channel busy cycles, and deadlock
verdicts with their channels.  The references are ``legacy``, which
shares no network or injection code with a lane, and, for multi-lane
grids, a solo ``compiled`` run drawing from its own RNG.  The suite
sweeps fixtures, a hypothesis grid of families x scenarios x loads and
mixed-lane grids, and pins the registry contract (``"batched"`` is the
compiled simulator), a numpy-free interpreter and a cold serial run that
loads neither networkx nor the process pool.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import simulation_engines
from repro.benchmarks.synthetic import default_mesh_traffic, default_ring_traffic
from repro.core.removal import remove_deadlocks
from repro.errors import SimulationError
from repro.examples_data.paper_ring import paper_ring_design
from repro.perf.batch_engine import _share_draw_streams, run_batch
from repro.perf.sim_engine import CompiledSimulator
from repro.simulation.fault_models import uniform_model
from repro.simulation.simulator import (
    SimulationConfig,
    make_traffic_generator,
    simulate_design,
    stats_divergences,
)
from repro.simulation.traffic_gen import FlowTrafficGenerator
from repro.synthesis.families import family_design

SCENARIOS = ("flows", "uniform", "hotspot", "transpose", "bursty")
#: Reference engines of the multi-lane suites: ``legacy`` shares no code
#: with a lane's network, a solo ``compiled`` run shares all of it but the
#: shared draw stream.
BOTH_REFERENCES = ("compiled", "legacy")
SRC = Path(__file__).resolve().parents[2] / "src"


def _one_link_failure(design):
    return uniform_model(
        design, seed=1, link_failures=1, start_cycle=40, end_cycle=200
    )


def assert_lane_identical(batched, config, design, max_cycles, engines=("legacy",)):
    for engine in engines:
        reference = simulation_engines.get(engine)(design, config).run(max_cycles)
        problems = stats_divergences(batched, reference)
        assert not problems, (engine, problems)


class TestRegistry:
    def test_batched_engine_registered(self):
        assert "batched" in simulation_engines.names()

    def test_batched_engine_is_the_compiled_simulator(self):
        """A B = 1 batched run is a compiled run."""
        assert simulation_engines.get("batched") is CompiledSimulator


class TestSingleLaneEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_mesh_all_scenarios(self, scenario, small_mesh_design):
        design = small_mesh_design
        config = SimulationConfig(
            injection_scale=3.0, seed=2, traffic_scenario=scenario
        )
        (stats,) = run_batch(design, [config], max_cycles=600)
        assert_lane_identical(stats, config, design, 600)
        assert stats.packets_delivered > 0

    def test_deadlock_verdict_and_channels_identical(self):
        """An unprotected ring under pressure deadlocks identically."""
        design = paper_ring_design()
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
        (stats,) = run_batch(design, [config], max_cycles=4000)
        assert stats.deadlock_detected
        assert_lane_identical(stats, config, design, 4000)

    def test_protected_ring_survives(self):
        design = remove_deadlocks(paper_ring_design()).design
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
        (stats,) = run_batch(design, [config], max_cycles=4000)
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

    def test_shared_draw_stream_lanes_identical(self, small_mesh_design):
        """Lanes sharing a seed fire from one stream; the others draw their own."""
        design = small_mesh_design
        scenarios = ("flows", "uniform", "hotspot", "transpose", "bursty", "trace", "flows")
        configs = [
            SimulationConfig(injection_scale=0.5 * (lane + 1), seed=7, traffic_scenario=name)
            for lane, name in enumerate(scenarios)
        ]
        generators = [make_traffic_generator(design, config) for config in configs]
        # The last lane's generator has already drawn: same seed, other state.
        generators[-1].fire(0)
        stats_list = run_batch(design, configs, max_cycles=300, generators=generators)
        shared = ["fire" in vars(generator) for generator in generators]
        assert shared == [True, True, True, True, False, False, False]
        for stats, config in zip(stats_list[:-1], configs):
            assert_lane_identical(stats, config, design, 300, BOTH_REFERENCES)
        assert stats_list[-1].packets_injected > 0

    def test_mixed_depths_and_watchdogs_identical(self):
        """Lanes share nothing, so every config field may differ."""
        design = paper_ring_design()
        configs = [
            SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1),
            SimulationConfig(injection_scale=6.0, buffer_depth=4, seed=1, watchdog_cycles=50),
        ]
        stats_list = run_batch(design, configs, max_cycles=1500)
        for stats, config in zip(stats_list, configs):
            assert_lane_identical(stats, config, design, 1500)

    def test_fault_schedule_lane_identical(self, small_mesh_design):
        """A fault lane repairs its own private copy of the design."""
        schedule = _one_link_failure(small_mesh_design)
        configs = [
            SimulationConfig(injection_scale=1.5, seed=2, fault_schedule=schedule),
            SimulationConfig(injection_scale=1.5, seed=2),
        ]
        faulty, healthy = run_batch(small_mesh_design, configs, max_cycles=400)
        assert faulty.fault_events_applied > 0
        assert healthy.fault_events_applied == 0
        for stats, config in zip((faulty, healthy), configs):
            assert_lane_identical(stats, config, small_mesh_design, 400)

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
        """One lane deadlocks during injection and one in its drain, which
        shares a draw stream with a lane that drains cleanly.  Lane order
        and every verdict must survive."""
        design = paper_ring_design()
        max_cycles = 450
        configs = [
            SimulationConfig(injection_scale=5.0, buffer_depth=2, seed=3),
            SimulationConfig(injection_scale=3.0, buffer_depth=2, seed=1),
            SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1),
            SimulationConfig(injection_scale=4.0, buffer_depth=2, seed=0),
        ]
        stats_list = run_batch(design, configs, max_cycles=max_cycles)
        early, drained, drain_deadlock, also_drained = stats_list
        assert early.deadlock_cycle < max_cycles
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
        # Lanes pair up on seeds, so shared streams and own RNGs both run.
        configs = [
            SimulationConfig(
                injection_scale=scale,
                buffer_depth=depth,
                seed=lane // 2,
                traffic_scenario=scenario,
            )
            for lane, scale in enumerate(scales)
        ]
        stats_list = run_batch(design, configs, max_cycles=400)
        for stats, config in zip(stats_list, configs):
            assert_lane_identical(stats, config, design, 400, BOTH_REFERENCES)


class TestSharedDrawStreams:
    """Lanes share their draws exactly, and the shared work happens once."""

    MAX_CYCLES = 120

    @pytest.fixture
    def counted_sweeps(self, monkeypatch):
        """Cycles swept by the base Bernoulli ``fire``, any generator."""
        calls = []
        original = FlowTrafficGenerator.fire

        def counting(generator, cycle):
            calls.append(cycle)
            return original(generator, cycle)

        monkeypatch.setattr(FlowTrafficGenerator, "fire", counting)
        return calls

    def _solo_firings(self, design, config):
        generator = make_traffic_generator(design, config)
        return [list(generator.fire(cycle)) for cycle in range(self.MAX_CYCLES)]

    def test_identical_lanes_fire_one_sweep(self, small_mesh_design, counted_sweeps):
        config = SimulationConfig(injection_scale=2.0, seed=4)
        expected = self._solo_firings(small_mesh_design, config)
        generators = [make_traffic_generator(small_mesh_design, config) for _ in range(3)]
        counted_sweeps.clear()
        _share_draw_streams(generators, self.MAX_CYCLES)
        assert counted_sweeps == list(range(self.MAX_CYCLES))
        for generator in generators:
            fired = [list(generator.fire(cycle)) for cycle in range(self.MAX_CYCLES)]
            assert fired == expected
        assert any(expected)
        assert len(counted_sweeps) == self.MAX_CYCLES  # the lanes never drew again

    def test_distinct_rates_still_rank(self, small_mesh_design, counted_sweeps):
        configs = [SimulationConfig(injection_scale=scale, seed=4) for scale in (1.0, 3.0, 3.0)]
        expected = [self._solo_firings(small_mesh_design, config) for config in configs]
        generators = [make_traffic_generator(small_mesh_design, config) for config in configs]
        counted_sweeps.clear()
        _share_draw_streams(generators, self.MAX_CYCLES)
        assert counted_sweeps == []  # drawn from a copy of the RNG and ranked
        assert generators[1].fire == generators[2].fire  # one list per rate vector
        for generator, firings in zip(generators, expected):
            fired = [list(generator.fire(cycle)) for cycle in range(self.MAX_CYCLES)]
            assert fired == firings


class TestBatchRejections:
    def test_empty_batch_rejected(self, small_mesh_design):
        with pytest.raises(SimulationError, match="at least one"):
            run_batch(small_mesh_design, [], max_cycles=100)

    def test_generator_count_must_match_configs(self, small_mesh_design):
        """A missing generator is an error, not a silently dropped lane."""
        configs = [SimulationConfig(injection_scale=scale) for scale in (0.5, 1.0)]
        generators = [make_traffic_generator(small_mesh_design, configs[0])]
        with pytest.raises(SimulationError, match="one generator per configuration"):
            run_batch(small_mesh_design, configs, max_cycles=100, generators=generators)


class TestFaultScheduleFallback:
    def test_fallback_results_correct(self, small_mesh_design):
        """A fault run on the batched engine matches the legacy engine exactly."""
        config = SimulationConfig(
            injection_scale=1.5, seed=2, fault_schedule=_one_link_failure(small_mesh_design)
        )
        stats = simulation_engines.get("batched")(small_mesh_design, config).run(400)
        reference = simulation_engines.get("legacy")(small_mesh_design, config).run(400)
        assert not stats_divergences(stats, reference)
        assert stats.fault_events_applied > 0


def _run_script(script: str) -> None:
    """Run ``script`` in a fresh interpreter on this source tree; it prints ``ok``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=env,
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


class TestLazyNumpyImport:
    """No module of the package imports numpy."""

    def test_package_runs_without_numpy(self):
        _run_script(
            """
            import importlib, pkgutil, sys
            sys.modules["numpy"] = None  # import numpy -> ImportError
            import repro
            for module in pkgutil.walk_packages(repro.__path__, "repro."):
                importlib.import_module(module.name)
            from repro.analysis.performance import measure_load_grid
            from repro.simulation.simulator import SimulationConfig
            from repro.synthesis.families import family_design
            from repro.benchmarks.synthetic import default_mesh_traffic
            design = family_design(
                "mesh", default_mesh_traffic(2, 3), {"rows": 2, "cols": 3}, name="mesh2x3"
            )
            configs = [SimulationConfig(injection_scale=s) for s in (0.5, 1.0, 2.0)]
            metrics = measure_load_grid(design, configs, max_cycles=200)
            assert [m["injection_scale"] for m in metrics] == [0.5, 1.0, 2.0]
            assert all(m["packets_delivered"] > 0 for m in metrics)
            print("ok")
            """
        )

    def test_other_engines_unaffected_by_missing_numpy(
        self, small_mesh_design, monkeypatch
    ):
        monkeypatch.setitem(sys.modules, "numpy", None)
        config = SimulationConfig(injection_scale=1.0)
        stats = simulate_design(
            small_mesh_design, max_cycles=100, config=config, engine="compiled"
        )
        assert stats.flits_delivered > 0


class TestColdRunImports:
    """A cold serial run imports neither networkx nor the process pool."""

    def test_serial_run_without_networkx(self):
        _run_script(
            """
            import importlib, pkgutil, sys
            sys.modules["networkx"] = None  # import networkx -> ImportError
            from repro.api.runner import Runner
            from repro.api.spec import RunSpec
            spec = RunSpec(benchmark="D36_8", switch_count=14, injection_scale=2.0)
            result = Runner(jobs=1).run_spec(spec)
            structure = (result.initial_cycle_count, result.initial_cyclic_sccs,
                         result.initial_largest_scc, result.initial_cyclic_channels)
            assert structure == (-1, 1, 30, 30), structure
            assert result.simulation["variants"]["unprotected"]["deadlocked"]
            for name in ("networkx", "multiprocessing", "repro.lint"):
                assert sys.modules.get(name) is None, name
            import repro
            for module in pkgutil.walk_packages(repro.__path__, "repro."):
                importlib.import_module(module.name)
            print("ok")
            """
        )

    def test_benchmark_setup_imports(self):
        """The imports a benchmark worker makes before its first run."""
        _run_script(
            """
            import sys
            import numpy, repro, repro.perf.batch_engine
            import repro.api.cache, repro.api.runner, repro.api.spec
            heavy = ("networkx", "multiprocessing", "concurrent.futures.process", "repro.lint")
            loaded = [name for name in heavy if name in sys.modules]
            assert not loaded, loaded
            print("ok")
            """
        )
