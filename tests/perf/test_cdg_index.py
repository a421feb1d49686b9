"""Property tests: the incremental CDGIndex is equivalent to a fresh build.

The central safety property of the performance core: at every point of an
arbitrary add/replace/remove route history, :class:`repro.perf.cdg_index.CDGIndex`
holds exactly the graph ``build_cdg`` would produce from the current routes.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from route_strategies import random_route, random_route_sets

from repro.core.cdg import build_cdg
from repro.errors import DesignError
from repro.model.channels import Channel, Link
from repro.perf.cdg_index import CDGIndex, channel_sort_key

#: The equivalence property runs on >= 200 random cases.
EQUIVALENCE_SETTINGS = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def assert_index_matches(index: CDGIndex, routes: RouteSet) -> None:
    """The index must be byte-equivalent to a from-scratch build."""
    fresh = build_cdg(routes)
    index.verify_against(fresh)
    assert index.vertex_count == fresh.channel_count
    assert index.edge_count == fresh.edge_count
    assert index.is_acyclic() == fresh.is_acyclic()


class TestBuildEquivalence:
    @given(routes=random_route_sets())
    @EQUIVALENCE_SETTINGS
    def test_fresh_build_matches(self, routes):
        assert_index_matches(CDGIndex.from_routes(routes), routes)

    @given(
        routes=random_route_sets(),
        replacements=st.lists(
            st.tuples(st.integers(min_value=0, max_value=7), random_route()),
            min_size=1,
            max_size=6,
        ),
    )
    @EQUIVALENCE_SETTINGS
    def test_incremental_updates_match_fresh_build(self, routes, replacements):
        """Route replacements applied as deltas stay equivalent to a rebuild."""
        index = CDGIndex.from_routes(routes)
        names = routes.flow_names
        for flow_index, new_route in replacements:
            flow_name = names[flow_index % len(names)]
            old_route = routes.route(flow_name)
            routes.set_route(flow_name, new_route)
            index.apply_route_change(flow_name, old_route.channels, new_route.channels)
            assert_index_matches(index, routes)

    @given(routes=random_route_sets())
    @EQUIVALENCE_SETTINGS
    def test_remove_all_routes_empties_index(self, routes):
        index = CDGIndex.from_routes(routes)
        for flow_name in routes.flow_names:
            index.remove_route(flow_name, routes.route(flow_name).channels)
        assert index.vertex_count == 0
        assert index.edge_count == 0
        assert index.is_acyclic()


def ch(src, dst, vc=0):
    return Channel(Link(src, dst), vc)


class TestVertexLifecycle:
    def test_unused_channel_leaves_vertex_set(self):
        index = CDGIndex()
        index.add_route("f0", [ch("A", "B"), ch("B", "C")])
        index.remove_route("f0", [ch("A", "B"), ch("B", "C")])
        assert index.vertex_count == 0
        # The id stays interned for cheap revival.
        assert not index.is_live(index.intern(ch("A", "B")))

    def test_unbalanced_remove_raises(self):
        index = CDGIndex()
        index.add_route("f0", [ch("A", "B"), ch("B", "C")])
        with pytest.raises(DesignError):
            index.remove_route("f1", [ch("A", "B"), ch("B", "C")])

    def test_sorted_views_follow_channel_order(self):
        index = CDGIndex()
        # Intern out of sort order on purpose.
        index.add_route("f0", [ch("C", "B"), ch("B", "A")])
        index.add_route("f1", [ch("A", "B", 1), ch("B", "C")])
        index.add_route("f2", [ch("A", "B", 0), ch("B", "C")])
        vertices = [index.channel_of(i) for i in index.sorted_vertices()]
        assert vertices == sorted(vertices)
        b_id = index.intern(ch("B", "C"))
        # ch("B","C") has predecessors only; its successor list is empty.
        assert index.sorted_successors(b_id) == ()
        a0 = index.intern(ch("A", "B", 0))
        succ = [index.channel_of(i) for i in index.sorted_successors(a0)]
        assert succ == sorted(succ)

    def test_channel_sort_key_matches_dataclass_order(self):
        channels = [ch("B", "A"), ch("A", "C", 1), ch("A", "B"), ch("A", "C", 0)]
        assert sorted(channels) == sorted(channels, key=channel_sort_key)

    def test_to_cdg_round_trip(self):
        index = CDGIndex()
        index.add_route("f0", [ch("A", "B"), ch("B", "C"), ch("C", "A")])
        cdg = index.to_cdg()
        assert cdg.channel_count == 3
        assert cdg.edge_count == 2
        assert cdg.flows_on_edge(ch("A", "B"), ch("B", "C")) == frozenset({"f0"})
