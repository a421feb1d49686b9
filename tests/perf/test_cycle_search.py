"""The indexed, depth-limited cycle search returns exactly the seed's cycles."""

from __future__ import annotations

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from route_strategies import random_route, random_route_sets

from repro.core.cdg import build_cdg
from repro.core.cycles import count_cycles, find_smallest_cycle
from repro.model.channels import Channel, Link
from repro.perf.cdg_index import CDGIndex
from repro.perf.cycle_search import (
    IncrementalCycleSearch,
    count_cycles_indexed,
    tarjan_sccs,
)

SEARCH_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def ch(src, dst, vc=0):
    return Channel(Link(src, dst), vc)


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

    def test_cache_reused_for_untouched_component(self):
        """A search after an unrelated delta must not re-dirty a clean SCC."""
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
        graph = nx.DiGraph()
        graph.add_nodes_from(index.sorted_vertices())
        for node in index.sorted_vertices():
            graph.add_edges_from((node, succ) for succ in index.successors(node))
        theirs = {frozenset(c) for c in nx.strongly_connected_components(graph)}
        assert mine == theirs


class TestCountCycles:
    @given(routes=random_route_sets())
    @SEARCH_SETTINGS
    def test_indexed_count_matches_seed_count(self, routes):
        index = CDGIndex.from_routes(routes)
        assert count_cycles_indexed(index, limit=100) == count_cycles(
            build_cdg(routes), limit=100
        )

    def test_limit_caps_count(self):
        index = CDGIndex()
        # K4-ish dependency mesh: plenty of elementary cycles.
        for i, (a, b) in enumerate(
            [("A", "B"), ("B", "A"), ("B", "C"), ("C", "B"), ("C", "A"), ("A", "C")]
        ):
            index.add_route(f"f{i}", [ch(a, b), ch(b, "D" if b != "D" else "A")])
        index.add_route("g0", [ch("A", "B"), ch("B", "A"), ch("A", "B")])
        index.add_route("g1", [ch("B", "C"), ch("C", "B"), ch("B", "C")])
        assert count_cycles_indexed(index, limit=1) == 1
        assert count_cycles_indexed(index, limit=0) == 0
