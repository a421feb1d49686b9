"""The context engine reproduces the rebuild oracle on every benchmark.

For all six registry benchmarks, in virtual-channel and in physical-link
resource mode, the context engine must produce the exact
:class:`~repro.core.report.BreakAction` sequence of the rebuild oracle —
same cycles, same broken edges, same costs, same rerouted flows, same
added channels — plus the same headline numbers and the same cycle
structure of the initial CDG.  The cross-check flag
additionally asserts, after every single break, that the incrementally
maintained CDG equals a from-scratch rebuild and that every cost table
matches the reference builder.
"""

from __future__ import annotations

import pytest

from repro.benchmarks.registry import list_benchmarks
from repro.benchmarks.registry import get_benchmark
from repro.core.removal import DeadlockRemover, remove_deadlocks
from repro.errors import RemovalError
from repro.synthesis.builder import SynthesisConfig, synthesize_design

#: The paper's Figure 10 configuration: every benchmark at 14 switches.
SWITCH_COUNT = 14


def _synthesize(name: str, seed: int = 0):
    traffic = get_benchmark(name, seed=seed)
    return synthesize_design(traffic, SynthesisConfig(n_switches=SWITCH_COUNT))


@pytest.mark.parametrize("name", list_benchmarks())
def test_identical_break_actions_on_benchmark(name):
    design = _synthesize(name)
    for resource_mode in ("virtual", "physical"):
        seed_result = remove_deadlocks(
            design, engine="rebuild", resource_mode=resource_mode
        )
        fast_result = remove_deadlocks(
            design, engine="context", resource_mode=resource_mode, cross_check=True
        )
        assert fast_result.actions == seed_result.actions
        assert fast_result.iterations == seed_result.iterations
        assert fast_result.added_vc_count == seed_result.added_vc_count
        assert fast_result.initial_cyclic_sccs == seed_result.initial_cyclic_sccs
        assert fast_result.initial_largest_scc == seed_result.initial_largest_scc
        assert fast_result.initial_cyclic_channels == seed_result.initial_cyclic_channels
        assert fast_result.initially_deadlock_free == seed_result.initially_deadlock_free
        assert fast_result.design.routes == seed_result.design.routes


def test_default_engine_is_context():
    remover = DeadlockRemover()
    assert remover.engine == "context"
    assert remover.cross_check is False


def test_unknown_engine_rejected():
    with pytest.raises(RemovalError):
        DeadlockRemover(engine="warp")


def test_actions_carry_route_deltas():
    """Every break reports the pre-break routes of the flows it moved."""
    design = _synthesize("D36_8")
    result = remove_deadlocks(design)
    assert result.actions, "expected at least one break on D36_8 at 14 switches"
    for action in result.actions:
        assert action.previous_routes is not None
        assert set(action.previous_routes) == set(action.flows_rerouted)
        for flow_name, old_route in action.previous_routes.items():
            new_route = result.design.routes.route(flow_name)
            assert [c.link.src for c in old_route] == [c.link.src for c in new_route]
