"""Property-based tests (hypothesis) for the core invariants.

The central properties of the paper's method are checked on randomly
generated traffic and topology configurations:

* removal always terminates with an acyclic CDG and a valid design;
* removal never changes the physical path of any flow, only the VCs;
* the cost reported by the cost table always equals the number of VCs the
  break actually adds;
* resource ordering always produces an acyclic CDG, and never beats the
  removal algorithm on VC count on the designs it is compared on.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.benchmarks.synthetic import neighbour_traffic, uniform_random_traffic
from repro.core.cdg import build_cdg
from repro.core.cost import BACKWARD, FORWARD, build_cost_table
from repro.core.cycles import find_smallest_cycle
from repro.core.removal import remove_deadlocks
from repro.model.validation import validate_design
from repro.routing.ordering import apply_resource_ordering
from repro.synthesis.builder import SynthesisConfig, synthesize_design
from repro.synthesis.families import family_design

#: Keep hypothesis example counts moderate: each example synthesizes a
#: topology and runs the full removal pipeline.
SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def synthesized_designs(draw):
    """Random (traffic, switch count) pairs run through the synthesizer."""
    n_cores = draw(st.integers(min_value=8, max_value=20))
    flows_per_core = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=50))
    n_switches = draw(st.integers(min_value=3, max_value=max(3, n_cores // 2)))
    extra_links = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]))
    traffic = uniform_random_traffic(n_cores, flows_per_core, seed=seed)
    config = SynthesisConfig(n_switches=n_switches, extra_link_fraction=extra_links)
    return synthesize_design(traffic, config)


class TestRemovalProperties:
    @SETTINGS
    @given(design=synthesized_designs())
    def test_removal_always_reaches_acyclic_valid_design(self, design):
        result = remove_deadlocks(design)
        assert build_cdg(result.design).is_acyclic()
        validate_design(result.design)

    @SETTINGS
    @given(design=synthesized_designs())
    def test_removal_preserves_physical_paths(self, design):
        result = remove_deadlocks(design)
        for name, route in design.routes.items():
            assert result.design.routes.route(name).links == route.links

    @SETTINGS
    @given(design=synthesized_designs())
    def test_added_vcs_match_topology_growth(self, design):
        before = design.topology.channel_count
        result = remove_deadlocks(design)
        after = result.design.topology.channel_count
        assert after - before == result.added_vc_count

    @SETTINGS
    @given(design=synthesized_designs())
    def test_removal_is_idempotent(self, design):
        once = remove_deadlocks(design)
        twice = remove_deadlocks(once.design)
        assert twice.added_vc_count == 0
        assert twice.initially_deadlock_free

    @SETTINGS
    @given(n_switches=st.integers(min_value=3, max_value=12),
           hops=st.integers(min_value=1, max_value=4))
    def test_unidirectional_rings_always_fixed(self, n_switches, hops):
        if hops % n_switches == 0:
            hops = 1
        traffic = neighbour_traffic(n_switches, hops=hops)
        design = family_design(
            "ring", traffic, {"n_switches": n_switches}, name=f"ring{n_switches}"
        )
        result = remove_deadlocks(design)
        assert build_cdg(result.design).is_acyclic()
        validate_design(result.design)


class TestCostTableProperties:
    @SETTINGS
    @given(design=synthesized_designs(), direction=st.sampled_from([FORWARD, BACKWARD]))
    def test_cost_equals_added_vcs_for_chosen_break(self, design, direction):
        from repro.core.breaker import break_cycle

        cdg = build_cdg(design)
        cycle = find_smallest_cycle(cdg)
        if cycle is None:
            return
        table = build_cost_table(cycle, design.routes, direction)
        work = design.copy()
        action = break_cycle(work, cycle, table.best_position, direction)
        assert action.added_vc_count == table.best_cost

    @SETTINGS
    @given(design=synthesized_designs())
    def test_max_row_dominates_every_flow_row(self, design):
        cdg = build_cdg(design)
        cycle = find_smallest_cycle(cdg)
        if cycle is None:
            return
        table = build_cost_table(cycle, design.routes, FORWARD)
        for flow in table.flow_names:
            for position, value in enumerate(table.entries[flow]):
                assert value <= table.max_costs[position]

    @SETTINGS
    @given(design=synthesized_designs())
    def test_every_cycle_edge_has_a_creating_flow(self, design):
        cdg = build_cdg(design)
        cycle = find_smallest_cycle(cdg)
        if cycle is None:
            return
        table = build_cost_table(cycle, design.routes, FORWARD)
        for position in range(len(table.edges)):
            assert table.max_costs[position] >= 1
            assert table.flows_creating(position)


class TestOrderingProperties:
    @SETTINGS
    @given(design=synthesized_designs())
    def test_ordering_always_acyclic_and_valid(self, design):
        result = apply_resource_ordering(design)
        assert build_cdg(result.design).is_acyclic()
        validate_design(result.design)

    @SETTINGS
    @given(design=synthesized_designs())
    def test_removal_never_needs_more_vcs_than_ordering(self, design):
        removal = remove_deadlocks(design)
        ordering = apply_resource_ordering(design)
        assert removal.added_vc_count <= ordering.extra_vcs

    @SETTINGS
    @given(design=synthesized_designs())
    def test_ordering_extra_vcs_matches_topology(self, design):
        result = apply_resource_ordering(design)
        assert result.design.extra_vc_count == result.extra_vcs
