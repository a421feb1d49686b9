"""Property tests: the int-indexed cost engine equals the reference builder.

The ``"context"`` removal engine chooses break directions from
:class:`repro.perf.cost_index.CycleCostEngine`, which derives both cost
tables of a cycle from one pass over interned channel-id arrays.  These
tests replay random topologies through the indexed engine and through
:func:`repro.core.cost.build_cost_table` (the seed path) and require
field-for-field identical tables — and, end to end, identical
:class:`~repro.core.report.BreakAction` sequences.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.core.cdg import build_cdg
from repro.core.cost import BACKWARD, FORWARD, best_break, build_cost_table
from repro.core.cycles import find_all_cycles
from repro.core.removal import remove_deadlocks
from repro.errors import RemovalError
from repro.model.channels import Channel, Link
from repro.model.design import NocDesign
from repro.model.routes import Route, RouteSet
from repro.model.topology import Topology
from repro.model.traffic import CommunicationGraph
from repro.perf.cost_index import CycleCostEngine

from route_strategies import random_route_sets


def _assert_tables_equal(mine, reference):
    assert mine.direction == reference.direction
    assert mine.cycle == reference.cycle
    assert mine.edges == reference.edges
    assert mine.flow_names == reference.flow_names
    assert mine.entries == reference.entries
    assert mine.max_costs == reference.max_costs
    assert mine.best_cost == reference.best_cost
    assert mine.best_position == reference.best_position
    assert mine == reference


class TestTableEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(routes=random_route_sets())
    def test_matches_reference_on_every_cycle(self, routes):
        """Forward and backward tables equal the seed builder's on every
        elementary cycle of the random route set's CDG."""
        cycles = find_all_cycles(build_cdg(routes), limit=50)
        if not cycles:
            return
        engine = CycleCostEngine.from_routes(routes)
        for cycle in cycles:
            forward, backward = engine.tables(cycle)
            _assert_tables_equal(forward, build_cost_table(cycle, routes, FORWARD))
            _assert_tables_equal(backward, build_cost_table(cycle, routes, BACKWARD))

    @settings(max_examples=100, deadline=None)
    @given(routes=random_route_sets())
    def test_best_break_matches_reference(self, routes):
        """The (direction, cost, position) choice — forward wins ties —
        equals :func:`repro.core.cost.best_break` exactly."""
        cycles = find_all_cycles(build_cdg(routes), limit=50)
        if not cycles:
            return
        engine = CycleCostEngine.from_routes(routes)
        for cycle in cycles:
            direction, cost, position, table = engine.best_break(cycle)
            ref_direction, ref_cost, ref_position, ref_table = best_break(cycle, routes)
            assert (direction, cost, position) == (ref_direction, ref_cost, ref_position)
            _assert_tables_equal(table, ref_table)

    def test_rejects_degenerate_cycle(self):
        routes = RouteSet()
        link = Link("A", "B")
        routes.set_route("f0", Route([Channel(link, 0)]))
        engine = CycleCostEngine.from_routes(routes)
        with pytest.raises(RemovalError):
            engine.tables([Channel(link, 0)])

    def test_rejects_cycle_foreign_to_routes(self):
        routes = RouteSet()
        routes.set_route(
            "f0", Route([Channel(Link("A", "B"), 0), Channel(Link("B", "C"), 0)])
        )
        foreign = [Channel(Link("X", "Y"), 0), Channel(Link("Y", "X"), 0)]
        with pytest.raises(RemovalError, match="no flow creates any dependency"):
            CycleCostEngine.from_routes(routes).tables(foreign)


def _ring_design(n_switches: int = 4) -> NocDesign:
    """A unidirectional ring with one all-the-way-around flow per switch —
    the classic cyclic-CDG example the paper opens with."""
    topology = Topology("ring")
    switches = [f"s{i}" for i in range(n_switches)]
    topology.add_switches(switches)
    links = []
    for i in range(n_switches):
        links.append(topology.add_link(switches[i], switches[(i + 1) % n_switches]))
    traffic = CommunicationGraph("ring_traffic")
    core_map = {}
    for i, switch in enumerate(switches):
        core = f"c{i}"
        traffic.add_core(core)
        core_map[core] = switch
    routes = RouteSet()
    for i in range(n_switches):
        src, dst = f"c{i}", f"c{(i + n_switches - 1) % n_switches}"
        traffic.add_flow(f"flow{i}", src, dst, bandwidth=10.0)
        channels = [
            Channel(links[(i + k) % n_switches], 0) for k in range(n_switches - 1)
        ]
        routes.set_route(f"flow{i}", Route(channels))
    return NocDesign(
        name="ring", topology=topology, traffic=traffic, core_map=core_map, routes=routes
    )


class TestEndToEndActionEquality:
    def test_context_engine_reproduces_seed_actions_on_ring(self):
        design = _ring_design(5)
        seed_result = remove_deadlocks(design, engine="rebuild")
        context_result = remove_deadlocks(design, engine="context", cross_check=True)
        assert context_result.actions == seed_result.actions
        assert context_result.design.routes == seed_result.design.routes

    def test_best_direction_matches_seed_path(self):
        design = _ring_design(4)
        seed_result = remove_deadlocks(design, engine="rebuild")
        context_result = remove_deadlocks(design, engine="context", cross_check=True)
        assert context_result.actions == seed_result.actions
        assert context_result.design.routes == seed_result.design.routes
