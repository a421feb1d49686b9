"""Property-based invariants of the wormhole simulator.

The key conservation laws that must hold for any design, any seed and any
injection rate:

* **flit conservation** — every injected flit is, at any instant, exactly
  in one place: waiting for injection, buffered in the network, or
  delivered;
* **no overflow** — buffer occupancy never exceeds the configured depth;
* **per-packet ordering** — a packet's flits arrive in order and its tail
  is the last flit delivered;
* **protected designs never deadlock** — the CDG acyclicity guarantee holds
  at run time regardless of the traffic seed.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.registry import topology_families
from repro.api.reports import FIGURE10_BENCHMARKS, FIGURE10_SWITCH_COUNT
from repro.benchmarks.registry import get_benchmark
from repro.benchmarks.synthetic import (
    default_mesh_traffic,
    default_ring_traffic,
    uniform_random_traffic,
)
from repro.core.cdg import build_cdg
from repro.core.removal import remove_deadlocks
from repro.examples_data.paper_ring import paper_ring_design
from repro.simulation.fault_models import spatial_burst_model
from repro.simulation.network import WormholeNetwork
from repro.simulation.simulator import SimulationConfig, Simulator, simulate_design
from repro.synthesis.builder import SynthesisConfig, synthesize_design
from repro.synthesis.families import family_design, family_size

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: The smallest member of every registered topology family that has links
#: (a 1 x 1 mesh is valid but carries only local traffic); a family missing
#: here fails its converse test below.
SMALLEST_FAMILY_MEMBERS = {
    "ring": {"n_switches": 3},
    "mesh": {"rows": 1, "cols": 2},
    "torus": {"rows": 3, "cols": 3},
    "fat_tree": {"k": 2},
    "clos": {"spines": 1, "leaves": 2},
    "vl2": {"spines": 1, "leaves": 2},
    "dragonfly": {"groups": 2, "routers": 2},
}


def _design_for(kind: str):
    if kind in ("line_mesh", "mesh"):
        rows = 2 if kind == "line_mesh" else 3
        traffic = default_mesh_traffic(rows, 3)
        return family_design("mesh", traffic, {"rows": rows, "cols": 3}, name=f"mesh{rows}x3")
    if kind == "ring_fixed":
        ring = family_design("ring", default_ring_traffic(5), {"n_switches": 5}, name="ring5")
        return remove_deadlocks(ring).design
    return remove_deadlocks(paper_ring_design()).design


class TestConservation:
    @SETTINGS
    @given(
        kind=st.sampled_from(["line_mesh", "mesh", "ring_fixed", "paper_fixed"]),
        scale=st.floats(min_value=0.5, max_value=6.0),
        seed=st.integers(min_value=0, max_value=100),
        buffer_depth=st.integers(min_value=1, max_value=6),
    )
    def test_flit_conservation_and_no_overflow(self, kind, scale, seed, buffer_depth):
        design = _design_for(kind)
        config = SimulationConfig(
            injection_scale=scale, buffer_depth=buffer_depth, seed=seed
        )
        simulator = Simulator(design, config)
        injected_flits = 0
        for cycle in range(300):
            before = simulator.stats.packets_injected
            simulator._inject_new_packets(cycle)
            injected = simulator.stats.packets_injected - before
            injected_flits += injected * 8  # every generated flow uses 8-flit packets
            simulator.network.step(cycle, simulator.stats)
            in_network = simulator.network.flits_in_network()
            pending = simulator.network.flits_pending_injection()
            delivered = simulator.stats.flits_delivered
            assert pending + in_network + delivered == injected_flits
            for router in simulator.network.routers.values():
                for buffer in router.input_buffers.values():
                    assert buffer.occupancy <= buffer_depth

    @SETTINGS
    @given(
        kind=st.sampled_from(["ring_fixed", "paper_fixed", "mesh"]),
        scale=st.floats(min_value=1.0, max_value=8.0),
        seed=st.integers(min_value=0, max_value=100),
    )
    def test_protected_designs_never_deadlock(self, kind, scale, seed):
        design = _design_for(kind)
        config = SimulationConfig(injection_scale=scale, buffer_depth=2, seed=seed)
        simulator = Simulator(design, config)
        stats = simulator.run(max_cycles=1200, drain=False)
        assert not stats.deadlock_detected

    @SETTINGS
    @given(seed=st.integers(min_value=0, max_value=200))
    def test_packet_flits_arrive_in_order(self, seed):
        design = _design_for("mesh")
        config = SimulationConfig(injection_scale=2.0, buffer_depth=3, seed=seed)
        simulator = Simulator(design, config)
        stats = simulator.run(max_cycles=600)
        # Every delivered packet has a delivery cycle not before its creation
        # plus its minimal serialisation latency.
        assert all(latency >= 1 for latency in stats.latencies)
        assert stats.packets_delivered <= stats.packets_injected


#: Figure 10 benchmarks whose unprotected design has a cyclic CDG at the
#: figure's switch count; the others synthesize deadlock-free.
CYCLIC_AT_FIGURE10_SIZE = ("D36_6", "D36_8")


def _figure10_id(name: str) -> str:
    # The ids match the conftest fixture names (d26_design_14sw, d36_8_design_14sw).
    short = "d26" if name == "D26_media" else name.lower()
    return f"{short}_design_{FIGURE10_SWITCH_COUNT}sw"


@pytest.mark.parametrize("name", FIGURE10_BENCHMARKS, ids=_figure10_id)
def test_soc_removal_designs_never_deadlock(name):
    """Every Figure 10 removal design at the figure's size, on the compiled engine.

    The two benchmarks with a cyclic unprotected CDG must stay cyclic
    here, so the converse is tested on designs removal actually changed.
    """
    design = synthesize_design(
        get_benchmark(name, seed=0), SynthesisConfig(n_switches=FIGURE10_SWITCH_COUNT)
    )
    if name in CYCLIC_AT_FIGURE10_SIZE:
        assert not build_cdg(design).is_acyclic()
    protected = remove_deadlocks(design).design
    for scale in (1.0, 2.0):
        config = SimulationConfig(injection_scale=scale, seed=0)
        stats = simulate_design(protected, max_cycles=3000, config=config, engine="compiled")
        assert not stats.deadlock_detected
        assert stats.packets_delivered > 0


@pytest.mark.parametrize("family", sorted(topology_families.names()))
def test_family_removal_designs_never_deadlock(family):
    """The converse of the paper's premise on every topology family.

    Deterministic routing over an acyclic CDG leaves no cyclic wait to form,
    so the removal design must survive four times its nominal load.
    """
    params = SMALLEST_FAMILY_MEMBERS[family]
    traffic = uniform_random_traffic(2 * family_size(family, params), flows_per_core=2, seed=1)
    protected = remove_deadlocks(family_design(family, traffic, params)).design
    assert build_cdg(protected).is_acyclic()
    config = SimulationConfig(injection_scale=4.0, seed=0)
    stats = simulate_design(protected, max_cycles=1000, config=config, engine="compiled")
    assert not stats.deadlock_detected
    assert stats.packets_delivered > 0


@pytest.mark.parametrize("policy", ["idle", "protection"])
def test_recovery_keeps_removal_design_deadlock_free(policy, d36_8_design_14sw):
    """Faults must not reopen a cycle: D36_8 @ 14 under a spatial burst.

    ``idle`` quiesces the severed flows and ``protection`` swaps in backup
    routes; neither re-runs removal, so the degraded CDG must stay acyclic
    on its own.
    """
    protected = remove_deadlocks(d36_8_design_14sw).design
    schedule = spatial_burst_model(
        protected, seed=0, radius=1, start_cycle=50, end_cycle=150, restore_after=100
    )
    config = SimulationConfig(seed=0, fault_schedule=schedule, fault_recovery=policy)
    stats = simulate_design(protected, max_cycles=300, config=config, engine="compiled")
    assert stats.fault_events_applied > 0
    assert not stats.deadlock_detected
    assert stats.post_fault_deadlock_free is True
    assert stats.packets_delivered > 0
