"""The indexed, depth-limited cycle search returns exactly the seed's cycles."""

from __future__ import annotations

from itertools import islice
from pathlib import Path

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from route_strategies import random_route, random_route_sets

from repro.analysis.experiments import compare_methods
from repro.api.spec import ExperimentPlan
from repro.core.cdg import ChannelDependencyGraph, build_cdg
from repro.core.cycles import count_cycles, find_all_cycles, find_smallest_cycle
from repro.model.channels import Channel, Link
from repro.perf.cdg_index import CDGIndex
from repro.perf.cycle_search import (
    IncrementalCycleSearch,
    cycle_structure,
    simple_cycles,
    tarjan_sccs,
)

SEARCH_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def ch(src, dst, vc=0):
    return Channel(Link(src, dst), vc)


def index_graph(index: CDGIndex) -> nx.DiGraph:
    """The index as a networkx graph, for the oracles."""
    graph = nx.DiGraph()
    graph.add_nodes_from(index.sorted_vertices())
    for node in index.sorted_vertices():
        graph.add_edges_from((node, succ) for succ in index.successors(node))
    return graph


def canonical(cycle) -> tuple:
    """The rotation of ``cycle`` that starts at its smallest vertex."""
    first = cycle.index(min(cycle))
    return tuple(cycle[first:]) + tuple(cycle[:first])


@st.composite
def digraphs(draw):
    """A loop-free digraph on up to 8 vertices, as ``(n, edges)``."""
    n = draw(st.integers(min_value=1, max_value=8))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs.filter(lambda edge: edge[0] != edge[1]), unique=True))
    return n, edges


class TestSearchEquivalence:
    @given(routes=random_route_sets())
    @SEARCH_SETTINGS
    def test_matches_seed_search_on_fresh_graphs(self, routes):
        expected = find_smallest_cycle(build_cdg(routes))
        found = IncrementalCycleSearch(CDGIndex.from_routes(routes)).find_smallest()
        assert found == expected

    @given(
        routes=random_route_sets(),
        replacements=st.lists(
            st.tuples(st.integers(min_value=0, max_value=7), random_route()),
            min_size=1,
            max_size=6,
        ),
    )
    @SEARCH_SETTINGS
    def test_matches_seed_search_across_incremental_updates(self, routes, replacements):
        """Cached per-SCC results stay exact while routes mutate underneath."""
        index = CDGIndex.from_routes(routes)
        search = IncrementalCycleSearch(index)
        assert search.find_smallest() == find_smallest_cycle(build_cdg(routes))
        names = routes.flow_names
        for flow_index, new_route in replacements:
            flow_name = names[flow_index % len(names)]
            old_route = routes.route(flow_name)
            routes.set_route(flow_name, new_route)
            index.apply_route_change(flow_name, old_route.channels, new_route.channels)
            assert search.find_smallest() == find_smallest_cycle(build_cdg(routes))

    def test_acyclic_returns_none(self):
        index = CDGIndex()
        index.add_route("f0", [ch("A", "B"), ch("B", "C"), ch("C", "D")])
        assert IncrementalCycleSearch(index).find_smallest() is None

    def test_two_cycle_beats_three_cycle(self):
        index = CDGIndex()
        index.add_route("f0", [ch("X", "Y"), ch("Y", "X"), ch("X", "Y")])
        index.add_route("f1", [ch("A", "B"), ch("B", "C"), ch("C", "A"), ch("A", "B")])
        cycle = IncrementalCycleSearch(index).find_smallest()
        assert len(cycle) == 2
        assert set(cycle) == {ch("X", "Y"), ch("Y", "X")}

    def test_other_scc_found_after_unrelated_change(self):
        """Breaking one SCC's cycle leaves the other SCC's cycle to find."""
        index = CDGIndex()
        index.add_route("f0", [ch("A", "B"), ch("B", "A"), ch("A", "B")])
        index.add_route("f1", [ch("C", "D"), ch("D", "C"), ch("C", "D")])
        search = IncrementalCycleSearch(index)
        first = search.find_smallest()
        assert len(first) == 2
        # Break the A/B cycle (its flow now stops before closing the loop).
        index.apply_route_change("f0", [ch("A", "B"), ch("B", "A"), ch("A", "B")],
                                 [ch("A", "B"), ch("B", "A")])
        second = search.find_smallest()
        assert set(second) == {ch("C", "D"), ch("D", "C")}


class TestTarjan:
    @given(routes=random_route_sets())
    @SEARCH_SETTINGS
    def test_components_match_networkx(self, routes):
        index = CDGIndex.from_routes(routes)
        mine = {
            frozenset(component)
            for component in tarjan_sccs(index.sorted_vertices(), index.successors)
        }
        theirs = {frozenset(c) for c in nx.strongly_connected_components(index_graph(index))}
        assert mine == theirs


def networkx_structure(graph: nx.DiGraph) -> tuple:
    """The oracle's ``(cyclic SCCs, largest, channels on cycles)``."""
    sizes = [len(c) for c in nx.strongly_connected_components(graph) if len(c) > 1]
    return len(sizes), max(sizes, default=0), sum(sizes)


class TestCycleStructure:
    @given(routes=random_route_sets())
    @SEARCH_SETTINGS
    def test_matches_networkx_and_the_union_of_all_cycles(self, routes):
        index = CDGIndex.from_routes(routes)
        structure = cycle_structure(index.sorted_vertices(), index.successors)
        assert structure == networkx_structure(index_graph(index))
        cdg = build_cdg(routes)
        assert cycle_structure(cdg.channels, cdg.successors) == structure
        on_cycles = {channel for cycle in find_all_cycles(cdg) for channel in cycle}
        assert structure[2] == len(on_cycles)

    def test_every_paper_figure_record_matches_networkx(self):
        """The Figure 8-10, area and overhead designs: every record carries
        the structure of its unprotected CDG, and no cycle count."""
        plan = ExperimentPlan.load(Path(__file__).resolve().parents[2] / "plans/paper_figures.json")
        specs = plan.all_specs()
        assert len(specs) == 19
        cyclic = 0
        for spec in specs:
            bundle = compare_methods(spec)
            cdg = build_cdg(bundle.designs["unprotected"])
            graph = nx.DiGraph(cdg.edges)
            graph.add_nodes_from(cdg.channels)
            scalars = bundle.scalars
            assert scalars["initial_cycle_count"] == -1
            assert (
                scalars["initial_cyclic_sccs"],
                scalars["initial_largest_scc"],
                scalars["initial_cyclic_channels"],
            ) == networkx_structure(graph), spec
            cyclic += scalars["initial_cyclic_sccs"] > 0
        assert 0 < cyclic < len(specs)


class TestSimpleCycles:
    @given(graph=digraphs())
    @SEARCH_SETTINGS
    def test_yields_each_networkx_cycle_once(self, graph):
        n, edges = graph
        successors = [[] for _ in range(n)]
        for src, dst in edges:
            successors[src].append(dst)
        mine = list(simple_cycles(range(n), successors.__getitem__))
        assert all(cycle[0] == min(cycle) for cycle in mine)
        assert len(set(mine)) == len(mine)
        oracle = nx.DiGraph(edges)
        oracle.add_nodes_from(range(n))
        assert set(mine) == {canonical(cycle) for cycle in nx.simple_cycles(oracle)}

    @given(routes=random_route_sets(), limit=st.sampled_from([None, 1, 5, 50, 10000]))
    @SEARCH_SETTINGS
    def test_capped_counts_match_networkx(self, routes, limit):
        index = CDGIndex.from_routes(routes)
        expected = sum(1 for _ in islice(nx.simple_cycles(index_graph(index)), limit))
        assert count_cycles(build_cdg(routes), limit=limit) == expected


class TestCountCycles:
    def test_limit_caps_count(self):
        cdg = ChannelDependencyGraph()
        # K4-ish dependency mesh: plenty of elementary cycles.
        for i, (a, b) in enumerate(
            [("A", "B"), ("B", "A"), ("B", "C"), ("C", "B"), ("C", "A"), ("A", "C")]
        ):
            cdg.add_route(f"f{i}", [ch(a, b), ch(b, "D" if b != "D" else "A")])
        cdg.add_route("g0", [ch("A", "B"), ch("B", "A"), ch("A", "B")])
        cdg.add_route("g1", [ch("B", "C"), ch("C", "B"), ch("B", "C")])
        assert count_cycles(cdg, limit=1) == 1
        assert count_cycles(cdg, limit=0) == 0
