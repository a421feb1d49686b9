"""Online fault recovery: engine equivalence and post-fault deadlock freedom.

The fault-injection axis only means something if both simulation engines
agree on what a failure does: ``simulate_design(..., cross_check=True)``
re-runs the compiled engine's run on the legacy object-per-flit simulator
and raises on any stats divergence, so every test here that passes under
``cross_check=True`` is a field-identity proof.

The deterministic ring scenario pins the semantics: a design that is
deadlock-free while healthy but whose only surviving routes after a link
failure form a cyclic CDG must *deadlock identically* in both engines when
recovery is reroute-only, and must *stay deadlock-free* when recovery
re-runs deadlock removal on the degraded design (the default).

The ``protection`` policy provisions its backups once per design state:
the lanes of a grid share one provisioning and still match solo runs
field for field, and a design edited between runs provisions again.

Every entry point of a faulted run checks the schedule's targets against
the design it simulates, on every engine: a missing link raises instead of
counting as an applied fault event.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Tuple
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.performance import measure_load_point
from repro.api.registry import simulation_engines
from repro.benchmarks.registry import get_benchmark, list_benchmarks
from repro.core.cdg import build_cdg
from repro.core.cycles import verify_cycle
from repro.core.removal import remove_deadlocks
from repro.errors import SimulationError
from repro.model.channels import Channel, Link
from repro.model.design import NocDesign
from repro.model.routes import Route, RouteSet
from repro.model.topology import Topology
from repro.model.traffic import CommunicationGraph
from repro.perf.batch_engine import run_batch
from repro.perf.sim_engine import CompiledNetwork
from repro.simulation import recovery
from repro.simulation.events import EventSchedule
from repro.simulation.simulator import (
    SimulationConfig,
    simulate_design,
    stats_divergences,
)
from repro.synthesis.builder import SynthesisConfig, synthesize_design
from template_oracle import assert_matches_fresh_compile

SETTINGS = settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Switch count of the six-benchmark equivalence sweep (Figure 10 setting).
CROSS_CHECK_SWITCHES = 14


@lru_cache(maxsize=None)
def _protected(benchmark: str, switches: int = CROSS_CHECK_SWITCHES) -> NocDesign:
    traffic = get_benchmark(benchmark, seed=0)
    design = synthesize_design(traffic, SynthesisConfig(n_switches=switches))
    return remove_deadlocks(design).design


def _schedules(design: NocDesign) -> List[EventSchedule]:
    """Two distinct schedules per design: link-only and link+router."""
    return [
        EventSchedule.random(
            design.topology,
            seed=1,
            link_failures=2,
            start_cycle=40,
            end_cycle=200,
            restore_after=150,
        ),
        EventSchedule.random(
            design.topology,
            seed=2,
            link_failures=1,
            router_failures=1,
            start_cycle=60,
            end_cycle=250,
        ),
    ]


def _shared_link_design(vcs: int) -> NocDesign:
    """Two flows from switch A to switch B over link A->B with ``vcs`` VCs.

    ``f1`` (2 flits) rides VC 0 and ``f2`` (5 flits) the last VC, so with
    one VC they compete for one channel and with two for one link.
    """
    topology = Topology("shared_link")
    topology.add_switches(["A", "B"])
    topology.add_bidirectional_link("A", "B", vc_count=vcs)
    traffic = CommunicationGraph("shared_link_traffic")
    traffic.add_cores(["a1", "a2", "b"])
    traffic.add_flow("f1", "a1", "b", packet_size_flits=2)
    traffic.add_flow("f2", "a2", "b", packet_size_flits=5)
    link = Link("A", "B")
    routes = RouteSet(
        {"f1": Route([Channel(link, 0)]), "f2": Route([Channel(link, vcs - 1)])}
    )
    return NocDesign(
        name="shared_link",
        topology=topology,
        traffic=traffic,
        core_map={"a1": "A", "a2": "A", "b": "B"},
        routes=routes,
    )


class TestEngineEquivalenceUnderFaults:
    @pytest.mark.parametrize(
        "vcs, latencies", [(1, [1, 1, 6]), (2, [1, 2, 6])], ids=["one-vc", "two-vcs"]
    )
    def test_restored_link_arbitrates_afresh(self, vcs, latencies):
        """A restored link's allocation and VC pointers restart at 0.

        f1 crosses A->B alone at cycle 0, which moves the channel's
        allocation pointer (one VC) or the link's VC pointer (two VCs) off
        its start.  The link fails at cycle 10 and is restored at 20, where
        ``idle`` reinstates both routes and f1 and f2 fire together.  A
        fresh link serves f1 first: with one VC f1 ends at cycle 21 and f2
        holds the channel for cycles 22-26; with two the VCs alternate from
        VC 0, so f1 ends at cycle 22 and f2 at 26.
        """
        trace = {
            "cycles": 30,
            "events": [
                {"cycle": 0, "flow": "f1", "packets": 1},
                {"cycle": 20, "flow": "f1", "packets": 1},
                {"cycle": 20, "flow": "f2", "packets": 1},
            ],
        }
        config = SimulationConfig(
            traffic_scenario="trace",
            scenario_params={"trace": trace},
            fault_schedule=EventSchedule().fail_link(10, "A", "B").restore_link(20, "A", "B"),
            fault_recovery="idle",
        )
        stats = simulate_design(
            _shared_link_design(vcs), max_cycles=30, config=config, cross_check=True
        )
        assert stats.fault_events_applied == 2
        assert stats.latencies == latencies

    @pytest.mark.parametrize("soc_benchmark", list_benchmarks())
    @pytest.mark.parametrize("which", [0, 1])
    def test_cross_check_on_soc_benchmarks(self, soc_benchmark, which):
        design = _protected(soc_benchmark)
        schedule = _schedules(design)[which]
        config = SimulationConfig(
            injection_scale=1.5, seed=0, fault_schedule=schedule
        )
        # cross_check=True re-runs the legacy engine on the same config
        # (replaying the schedule) and raises on any stats divergence.
        stats = simulate_design(
            design,
            max_cycles=400,
            config=config,
            engine="compiled",
            cross_check=True,
        )
        assert stats.fault_events_applied > 0
        # Every recovery re-ran removal on the degraded design: the CDG
        # check after each batch must have come back acyclic.
        assert stats.post_fault_deadlock_free is True

    def test_fault_free_schedule_matches_no_schedule(self):
        design = _protected("D26_media", 8)
        config = SimulationConfig(injection_scale=1.0, seed=0)
        baseline = simulate_design(design, max_cycles=300, config=config)
        empty = simulate_design(
            design,
            max_cycles=300,
            config=SimulationConfig(injection_scale=1.0, seed=0, fault_schedule=EventSchedule()),
        )
        assert baseline == empty


class TestProtectionProvisioning:
    @pytest.fixture
    def provisionings(self, monkeypatch):
        """Calls of the removal binding the recovery module uses."""
        calls = []
        real = recovery.remove_deadlocks

        def counting(*args, **kwargs):
            calls.append(True)
            return real(*args, **kwargs)

        monkeypatch.setattr(recovery, "remove_deadlocks", counting)
        return calls

    def _configs(self, design: NocDesign) -> List[SimulationConfig]:
        schedules = _schedules(design) + [
            EventSchedule.random(
                design.topology, seed=3, link_failures=1, start_cycle=30, end_cycle=150
            )
        ]
        return [
            SimulationConfig(
                injection_scale=1.0, seed=0, fault_schedule=schedule, fault_recovery="protection"
            )
            for schedule in schedules
        ]

    def test_grid_lanes_provision_once(self, provisionings):
        design = _protected("D26_media").copy()
        configs = self._configs(design)
        # Each solo run gets a fresh copy, so each provisions for itself.
        solo = [simulate_design(design.copy(), max_cycles=300, config=c) for c in configs]
        assert len(provisionings) == 3
        del provisionings[:]
        lanes = run_batch(design, configs, max_cycles=300)
        assert len(provisionings) == 1
        for lane, reference in zip(lanes, solo):
            assert not stats_divergences(lane, reference)
        assert all(stats.fault_events_applied for stats in lanes)

    def test_edited_design_provisions_again(self, provisionings):
        design = _protected("D26_media").copy()
        config = self._configs(design)[0]
        for _ in range(2):
            simulate_design(design, max_cycles=100, config=config)
        assert len(provisionings) == 1
        name = design.routes.flow_names[0]
        design.routes.set_route(name, design.routes.route(name))  # a new route-set version
        simulate_design(design, max_cycles=100, config=config)
        assert len(provisionings) == 2
        design.topology.add_virtual_channel(design.topology.links[0])  # a new link table
        simulate_design(design, max_cycles=100, config=config)
        assert len(provisionings) == 3


def _diagonal_ring_design() -> NocDesign:
    """Four switches with a clockwise ring plus one-hop 'diagonal' links.

    Healthy, every flow rides its private diagonal — single-channel routes,
    so the CDG has no edges at all.  Failing all four diagonals forces each
    flow onto the two-hop clockwise detour, and those detours close the
    classic ring dependency cycle S0S1 -> S1S2 -> S2S3 -> S3S0 -> S0S1.
    """
    switches = [f"S{i}" for i in range(4)]
    topology = Topology("diag_ring")
    topology.add_switches(switches)
    for i in range(4):
        topology.add_link(switches[i], switches[(i + 1) % 4])  # clockwise ring
        topology.add_link(switches[i], switches[(i + 2) % 4])  # diagonal

    traffic = CommunicationGraph("diag_ring_traffic")
    routes = RouteSet()
    core_map: Dict[str, str] = {}
    for i in range(4):
        src, dst = switches[i], switches[(i + 2) % 4]
        flow = f"f{i}"
        src_core, dst_core = f"core_{flow}_src", f"core_{flow}_dst"
        traffic.add_core(src_core)
        traffic.add_core(dst_core)
        # High nominal bandwidth: with injection_scale >= 6 every flow's
        # Bernoulli rate saturates, so all four detours carry packets at
        # once — the precondition for the wormhole cycle to actually lock.
        traffic.add_flow(flow, src_core, dst_core, bandwidth=3000.0)
        core_map[src_core] = src
        core_map[dst_core] = dst
        routes.set_route(flow, Route([Channel(Link(src, dst), 0)]))

    return NocDesign(
        name="diag_ring",
        topology=topology,
        traffic=traffic,
        core_map=core_map,
        routes=routes,
    )


def _diagonal_failures(cycle: int, count: int = 4) -> EventSchedule:
    schedule = EventSchedule()
    for i in range(count):
        schedule.fail_link(cycle, f"S{i}", f"S{(i + 2) % 4}")
    return schedule


class TestDeadlockAfterFailure:
    """The scenario the axis exists for: healthy-free, faulted-deadlocking."""

    def _config(self, fault_recovery: str) -> SimulationConfig:
        return SimulationConfig(
            injection_scale=8.0,
            buffer_depth=2,
            seed=0,
            fault_schedule=_diagonal_failures(30),
            fault_recovery=fault_recovery,
        )

    def _run(self, *, fault_recovery: str, engine: str = "compiled", cross_check=False):
        design = _diagonal_ring_design()
        config = self._config(fault_recovery)
        return simulate_design(
            design,
            max_cycles=600,
            config=config,
            engine=engine,
            cross_check=cross_check,
        )

    def test_healthy_design_is_deadlock_free(self):
        design = _diagonal_ring_design()
        config = SimulationConfig(injection_scale=8.0, buffer_depth=2, seed=0)
        stats = simulate_design(design, max_cycles=600, config=config)
        assert not stats.deadlock_detected

    def test_reroute_only_recovery_deadlocks_identically(self):
        compiled = self._run(fault_recovery="reroute", cross_check=True)
        legacy = self._run(fault_recovery="reroute", engine="legacy")
        assert compiled.deadlock_detected
        assert compiled.post_fault_deadlock_free is False
        assert legacy.deadlock_detected
        assert legacy.deadlock_cycle == compiled.deadlock_cycle
        assert legacy.deadlocked_channels == compiled.deadlocked_channels

    @pytest.mark.parametrize("engine", ["compiled", "legacy"])
    def test_deadlock_is_a_cycle_of_the_degraded_cdg(self, engine):
        healthy = _diagonal_ring_design()
        simulator = simulation_engines.get(engine)(healthy, self._config("reroute"))
        channels = simulator.run(600).deadlocked_channels
        assert verify_cycle(build_cdg(simulator._recovery.design), channels)
        # The healthy CDG has no edges: the witness tells the designs apart.
        assert not verify_cycle(build_cdg(healthy), channels)

    def test_removal_recovery_keeps_the_degraded_design_free(self):
        stats = self._run(fault_recovery="removal", cross_check=True)
        assert stats.fault_events_applied == 4
        assert not stats.deadlock_detected
        assert stats.post_fault_deadlock_free is True
        assert stats.flows_rerouted >= 4


#: The entry points of a faulted run, each as (design, config, engine) -> run.
_ENTRY_POINTS = {
    "Simulator": lambda design, config, engine: simulation_engines.get(engine)(
        design, config
    ).run(100),
    "run_batch": lambda design, config, engine: run_batch(
        design, [config], max_cycles=100, engine=engine
    ),
    "simulate_design": lambda design, config, engine: simulate_design(
        design, max_cycles=100, config=config, engine=engine
    ),
    "measure_load_point": lambda design, config, engine: measure_load_point(
        design, config, max_cycles=100, sim_engine=engine
    ),
}


class TestScheduleTargets:
    @pytest.mark.parametrize("engine", ["compiled", "legacy"])
    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_missing_link_raises(self, entry, engine):
        """Every entry point checks the schedule against the design it runs."""
        config = SimulationConfig(fault_schedule=EventSchedule().fail_link(10, "S0", "S3"))
        with pytest.raises(SimulationError, match="link S0->S3 .* does not exist"):
            _ENTRY_POINTS[entry](_diagonal_ring_design(), config, engine)


class TestRandomScheduleProperties:
    @SETTINGS
    @given(
        seed=st.integers(min_value=0, max_value=60),
        scenario=st.sampled_from(["flows", "uniform", "hotspot"]),
        link_failures=st.integers(min_value=1, max_value=2),
        router_failures=st.integers(min_value=0, max_value=1),
    )
    def test_engines_agree_under_random_faults(
        self, seed, scenario, link_failures, router_failures
    ):
        design = _protected("D26_media", 8)
        schedule = EventSchedule.random(
            design.topology,
            seed=seed,
            link_failures=link_failures,
            router_failures=router_failures,
            start_cycle=20,
            end_cycle=150,
            restore_after=100,
        )
        config = SimulationConfig(
            injection_scale=2.0,
            seed=seed,
            traffic_scenario=scenario,
            fault_schedule=schedule,
        )
        sync = CompiledNetwork.sync_with_design

        def checked_sync(network):
            # After every batch (restores and online-removal VCs included)
            # the template continuing the run's numbering describes the
            # sweep a fresh compile of the repaired design does.
            sync(network)
            assert_matches_fresh_compile(network.template)

        # Raises on any compiled-vs-legacy stats divergence.
        with mock.patch.object(CompiledNetwork, "sync_with_design", checked_sync):
            simulate_design(
                design, max_cycles=250, config=config, engine="compiled", cross_check=True
            )

    @SETTINGS
    @given(
        fail_cycle=st.integers(min_value=10, max_value=200),
        count=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=60),
    )
    def test_ring_detour_verdicts_are_engine_identical(self, fail_cycle, count, seed):
        design = _diagonal_ring_design()
        config = SimulationConfig(
            injection_scale=6.0,
            buffer_depth=2,
            seed=seed,
            fault_schedule=_diagonal_failures(fail_cycle, count),
            fault_recovery="reroute",
        )
        # Whether or not this particular cut deadlocks, both engines must
        # tell the same story field by field.
        simulate_design(
            design, max_cycles=400, config=config, engine="compiled", cross_check=True
        )
