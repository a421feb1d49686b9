"""The compiled simulation engine reproduces the legacy engine exactly.

``CompiledSimulator`` must produce **field-identical**
:class:`~repro.simulation.stats.SimulationStats` to the seed object-per-flit
``Simulator`` — delivered flits and packets, the full latency list (order
included), per-channel busy cycles, and the deadlock verdict with the exact
channels on the wait cycle.  The suite sweeps hand-built fixtures, a
hypothesis grid of topology families x scenarios x loads (saturating ones
included), and the SoC benchmarks, and pins the O(1) undelivered-flit
counter, the per-channel allocation request counts and the dormant links
of the compiled network to full state walks, fault recovery included.
After every fault batch the template that continues the run's numbering
must describe the sweep a fresh compile of the repaired design does.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import simulation_engines, traffic_scenarios
from repro.benchmarks.synthetic import default_mesh_traffic, default_ring_traffic
from repro.core.removal import remove_deadlocks
from repro.errors import SimulationError
from repro.examples_data.paper_ring import paper_ring_design
from repro.perf.counters import counters
from repro.perf.sim_engine import CompiledNetwork, CompiledSimulator, SimulationTemplate
from repro.simulation.events import EventSchedule
from repro.simulation.fault_models import spatial_burst_model
from repro.simulation.simulator import SimulationConfig, Simulator, simulate_design
from repro.simulation.stats import SimulationStats
from repro.simulation.trace import TraceTrafficGenerator
from repro.synthesis.families import family_design
from template_oracle import assert_matches_fresh_compile

SCENARIOS = ("flows", "uniform", "hotspot", "transpose", "bursty")


def _run_both(design, config, max_cycles):
    legacy = Simulator(design, config).run(max_cycles)
    compiled = CompiledSimulator(design, config).run(max_cycles)
    return legacy, compiled


def assert_stats_identical(legacy: SimulationStats, compiled: SimulationStats):
    for name in SimulationStats.__dataclass_fields__:
        assert getattr(compiled, name) == getattr(legacy, name), name


class TestRegistry:
    def test_both_engines_registered(self):
        assert set(simulation_engines.names()) >= {"compiled", "legacy"}

    def test_all_scenarios_registered(self):
        assert set(traffic_scenarios.names()) >= set(SCENARIOS)


class TestFixtureEquivalence:
    @pytest.mark.parametrize("scenario", SCENARIOS)
    def test_mesh_all_scenarios(self, scenario, small_mesh_design):
        design = small_mesh_design
        config = SimulationConfig(
            injection_scale=3.0, seed=2, traffic_scenario=scenario
        )
        legacy, compiled = _run_both(design, config, 600)
        assert_stats_identical(legacy, compiled)
        assert compiled.packets_delivered > 0

    def test_deadlock_verdict_and_channels_identical(self):
        """An unprotected ring under pressure deadlocks identically."""
        design = paper_ring_design()
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
        legacy, compiled = _run_both(design, config, 4000)
        assert legacy.deadlock_detected
        assert_stats_identical(legacy, compiled)
        assert compiled.deadlocked_channels == legacy.deadlocked_channels
        assert compiled.deadlock_cycle == legacy.deadlock_cycle

    def test_protected_ring_survives_in_both(self):
        design = remove_deadlocks(paper_ring_design()).design
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)
        legacy, compiled = _run_both(design, config, 4000)
        assert not compiled.deadlock_detected
        assert_stats_identical(legacy, compiled)

    def test_local_delivery_only_design(self, simple_line_design):
        config = SimulationConfig(injection_scale=2.0, seed=0)
        legacy, compiled = _run_both(simple_line_design, config, 400)
        assert_stats_identical(legacy, compiled)


class TestHypothesisEquivalence:
    @settings(max_examples=30, deadline=None)
    @given(
        family=st.sampled_from(["ring", "biring", "mesh", "paper", "protected_ring"]),
        size=st.integers(min_value=4, max_value=7),
        scale=st.sampled_from([0.5, 1.5, 4.0, 8.0]),
        depth=st.integers(min_value=1, max_value=4),
        seed=st.integers(min_value=0, max_value=5),
        scenario=st.sampled_from(SCENARIOS),
    )
    def test_random_runs_identical(self, family, size, scale, depth, seed, scenario):
        if family == "mesh":
            mesh = {"rows": 2, "cols": size - 2}
            traffic = default_mesh_traffic(2, size - 2)
            design = family_design("mesh", traffic, mesh, name=f"mesh2x{size - 2}")
        elif family == "paper":
            design = paper_ring_design()
        else:
            ring = {"n_switches": size, "bidirectional": family == "biring"}
            design = family_design("ring", default_ring_traffic(size), ring, name=f"ring{size}")
            if family == "protected_ring":
                design = remove_deadlocks(design).design
        config = SimulationConfig(
            injection_scale=scale,
            buffer_depth=depth,
            seed=seed,
            traffic_scenario=scenario,
        )
        legacy, compiled = _run_both(design, config, 500)
        assert_stats_identical(legacy, compiled)


@pytest.mark.parametrize("engine", ["compiled", "batched"])
class TestCrossCheckFlag:
    """Both names of the compiled simulator cross-check against ``legacy``."""

    def test_cross_check_passes_on_benchmark_design(self, d36_8_design_14sw, engine):
        design = remove_deadlocks(d36_8_design_14sw).design
        stats = simulate_design(
            design,
            max_cycles=300,
            config=SimulationConfig(injection_scale=2.0, seed=0),
            engine=engine,
            cross_check=True,
        )
        assert stats.packets_delivered > 0

    def test_cross_check_raises_on_divergence(self, small_mesh_design, monkeypatch, engine):
        """A rigged compiled engine must be caught by the stats comparison."""
        original = CompiledSimulator.run

        def rigged(self, max_cycles=10_000, **kwargs):
            stats = original(self, max_cycles, **kwargs)
            stats.flits_delivered += 1
            return stats

        monkeypatch.setattr(CompiledSimulator, "run", rigged)
        with pytest.raises(SimulationError, match=f"{engine!r} diverged"):
            simulate_design(
                small_mesh_design,
                max_cycles=200,
                config=SimulationConfig(injection_scale=2.0),
                engine=engine,
                cross_check=True,
            )


def requests_by_walk(network: CompiledNetwork) -> list:
    """Per-channel allocation requests, recounted from the arbitration sources.

    Walks every router's ``r_sources`` with the allocation scan's own
    request test — a non-empty buffer whose head flit (index 0) is still
    there, or an injection queue whose head packet has not started — and
    counts each request at the channel it targets.
    """
    t = network.template
    counts = [0] * t.channel_count
    for rid, sources in enumerate(t.r_sources):
        for s in sources:
            if s >= 0:
                if network.buf_hi[s] == network.buf_lo[s] or network.buf_lo[s] != 0:
                    continue
                route = t.flow_routes[network.pkt_flow[network.buf_pkt[s]]]
                target = route[network.buf_hops[s]]
            else:
                fid = ~s
                if not network.inj_pkts[fid] or network.inj_head_idx[fid] != 0:
                    continue
                target = t.flow_routes[fid][0]
            # A head flit always requests an output channel of its router.
            assert t.switch_index[t.channels[target].src] == rid
            counts[target] += 1
    return counts


def dormant_link_activity(network: CompiledNetwork) -> list:
    """``(slot, channel)`` pairs where a dormant link would still act.

    A read-only walk of every dormant link against the current state.  A
    visit of the link would allocate an unowned channel that some head
    flit requests (counted by :func:`requests_by_walk`, not by ``req``), or
    move the head flit of an owned channel's source when it is the owner's
    and its last hop or downstream credit allows.  Any such pair means a
    wake was missed: the sweep would skip work the dense sweep does.
    """
    t = network.template
    requests = requests_by_walk(network)
    active = []
    for links in t.r_links:
        for chs, slot in links:
            if network.awake[slot]:
                continue
            for c in chs:
                owner = network.out_owner[c]
                if owner == -1:
                    if requests[c]:
                        active.append((slot, c))
                    continue
                source = network.out_src[c]
                if source >= 0:
                    if network.buf_hi[source] == network.buf_lo[source]:
                        continue
                    pkt, hops = network.buf_pkt[source], network.buf_hops[source]
                else:
                    queue = network.inj_pkts[~source]
                    if not queue:
                        continue
                    pkt, hops = queue[0], 0
                route = t.flow_routes[network.pkt_flow[pkt]]
                if pkt != owner or route[hops] != c:
                    continue
                room = network.buf_hi[c] - network.buf_lo[c] < network.buffer_depth
                if hops == len(route) - 1 or (room and network.buf_pkt[c] in (-1, pkt)):
                    active.append((slot, c))
    return active


class TestCompiledNetworkAccounting:
    def _drive(self, design, config, cycles):
        simulator = CompiledSimulator(design, config)
        network = simulator.network
        recovery = simulator._recovery
        stats = simulator.stats
        self.dormant_link_cycles = 0
        self.revived = self.appended = 0
        for cycle in range(cycles):
            if recovery is not None:
                before = network.template
                recovery.on_cycle(cycle, network, stats)
                # drop_flows / sync_with_design recount the requests.
                assert network.req == requests_by_walk(network)
                t = network.template
                if t is not before:
                    # The batch continued the run's numbering: no id moved,
                    # and the sweep is the one a fresh compile describes.
                    assert t.channels[: before.channel_count] == before.channels
                    assert before.flow_ids.items() <= t.flow_ids.items()
                    assert_matches_fresh_compile(t)
                    back = set(t.wait_order) - set(before.wait_order)
                    self.revived += sum(1 for c in back if c < before.channel_count)
                    self.appended += t.channel_count - before.channel_count
            simulator._inject_new_packets(cycle)
            # A dormant link has nothing to do until one of its wake
            # events: the sweep may skip it only because of that.
            assert dormant_link_activity(network) == [], cycle
            self.dormant_link_cycles += network.awake.count(False)
            network.step(cycle, stats)
            if recovery is not None:
                recovery.after_step(cycle, network, stats)
            # The O(1) counters must agree with a full walk at every cycle.
            buffered, pending = network.count_flits_by_walk()
            assert network.flits_in_network() == buffered
            assert network.flits_pending_injection() == pending
            assert network.undelivered_flits == buffered + pending
            # So must the per-channel request counts: an undercount makes
            # the allocation skip a winner, an overcount scans for nothing.
            assert network.req == requests_by_walk(network)
        return simulator

    def test_undelivered_flits_matches_full_walk(self, small_mesh_design):
        design = small_mesh_design
        config = SimulationConfig(injection_scale=4.0, buffer_depth=2, seed=3)
        self._drive(design, config, 300)

    def test_undelivered_flits_matches_walk_under_deadlock(self):
        design = paper_ring_design()
        config = SimulationConfig(injection_scale=8.0, buffer_depth=2, seed=1)
        self._drive(design, config, 500)
        assert self.dormant_link_cycles > 0

    def test_dormant_links_idle_on_saturated_soc_design(self, d36_8_design_14sw):
        """Unprotected D36_8 @ 14 at scale 4: saturates, then deadlocks."""
        config = SimulationConfig(injection_scale=4.0, seed=0)
        self._drive(d36_8_design_14sw, config, 400)
        assert self.dormant_link_cycles > 0

    def test_drop_flows_recounts_requests(self, small_mesh_design):
        design = small_mesh_design
        config = SimulationConfig(injection_scale=4.0, buffer_depth=2, seed=3)
        network = self._drive(design, config, 100).network
        dropped_packets, _ = network.drop_flows(sorted(network.template.flow_ids)[::2])
        assert dropped_packets > 0
        assert network.req == requests_by_walk(network)

    def test_counters_match_walk_through_online_recovery(self, d36_8_design_14sw):
        design = remove_deadlocks(d36_8_design_14sw).design
        schedule = spatial_burst_model(
            design, seed=0, radius=1, start_cycle=50, end_cycle=150, restore_after=100
        )
        config = SimulationConfig(seed=0, fault_schedule=schedule)
        stats = self._drive(design, config, 300).stats
        # The burst severed in-flight flows: packets were dropped and the
        # network was re-synchronised with the repaired design.
        assert stats.fault_events_applied > 0
        assert stats.flows_rerouted > 0
        assert stats.packets_lost > 0
        assert self.dormant_link_cycles > 0
        # The restore brought failed channels back under their old ids.
        assert self.revived > 0

    def test_online_removal_vcs_join_the_run_numbering(self, d36_8_design_14sw):
        """A burst whose online removal adds VCs, then a restore."""
        design = remove_deadlocks(d36_8_design_14sw).design
        schedule = spatial_burst_model(
            design, seed=3, radius=1, start_cycle=50, end_cycle=150, restore_after=100
        )
        config = SimulationConfig(seed=3, fault_schedule=schedule)
        stats = self._drive(design, config, 300).stats
        assert len(stats.recovery_cycles) == 2
        assert self.appended > 0
        assert self.revived > 0

    def test_undelivered_reaches_zero_after_drain(self, small_mesh_design):
        config = SimulationConfig(injection_scale=1.0, seed=0)
        simulator = CompiledSimulator(small_mesh_design, config)
        simulator.run(300)
        buffered, pending = simulator.network.count_flits_by_walk()
        assert simulator.network.undelivered_flits == buffered + pending == 0

    def test_fired_unrouted_flow_is_lost_at_the_ni(self, small_mesh_design):
        """A fired flow without a route is an NI loss on both engines."""
        victim = next(
            flow
            for flow in small_mesh_design.traffic.flows
            if small_mesh_design.switch_of(flow.src) != small_mesh_design.switch_of(flow.dst)
        )
        degraded = small_mesh_design.copy()
        degraded.routes.remove_route(victim.name)
        trace = {"cycles": 1, "events": [{"cycle": 0, "flow": victim.name, "packets": 2}]}
        config = SimulationConfig(traffic_scenario="trace", scenario_params={"trace": trace})
        for engine in ("legacy", "compiled"):
            # The generator is built on the intact design, so it fires the
            # flow the degraded design no longer routes.
            generator = TraceTrafficGenerator(small_mesh_design, trace=trace)
            simulator = simulation_engines.get(engine).lane(degraded, config, generator)
            stats = simulator.run(5)
            assert degraded.routes.has_route(victim.name) is False
            assert stats.packets_injected == stats.packets_lost == 2, engine
            assert stats.flits_lost == 2 * victim.packet_size_flits, engine
            assert stats.flits_delivered == 0, engine
            assert simulator.network.undelivered_flits == 0, engine
            assert simulator._next_packet_id == 2, engine


class TestTemplateCache:
    def test_template_reused_across_runs(self, small_mesh_design):
        counters.reset()
        config = SimulationConfig(injection_scale=1.0)
        CompiledSimulator(small_mesh_design, config).run(50)
        CompiledSimulator(small_mesh_design, config).run(50)
        assert counters.sim_template_builds == 1
        assert counters.sim_template_reuses >= 1

    def test_fault_run_starts_from_the_design_template(self, small_mesh_design):
        """A fault lane's private copy reuses its design's template until a batch."""
        schedule = (
            EventSchedule().fail_link(20, "sw_0_0", "sw_1_0").restore_link(60, "sw_0_0", "sw_1_0")
        )
        config = SimulationConfig(injection_scale=1.0, fault_schedule=schedule)
        counters.reset()
        for _ in range(2):
            simulator = CompiledSimulator(small_mesh_design, config)
            assert simulator.network.design is not small_mesh_design
            assert simulator.network.template is small_mesh_design._sim_template
            assert len(simulator.run(100).recovery_cycles) == 2
        # One compile of the design, then one continued compile per batch.
        assert counters.sim_template_builds == 1 + 2 * 2
        assert counters.sim_template_reuses == 1

    def test_template_rebuilt_after_route_change(self, small_ring_design):
        SimulationTemplate.of(small_ring_design)
        protected = remove_deadlocks(small_ring_design, in_place=True).design
        fresh = SimulationTemplate.of(protected)
        assert fresh.routes_version == protected.routes.version
        # The stale template must not have been served.
        assert fresh.channel_count == protected.topology.channel_count
