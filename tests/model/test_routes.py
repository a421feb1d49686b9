"""Tests for routes and route sets (repro.model.routes)."""

import pytest

from repro.errors import RouteError
from repro.model.channels import Channel, Link
from repro.model.routes import Route, RouteSet


def ch(src, dst, vc=0):
    return Channel(Link(src, dst), vc)


@pytest.fixture
def abc_route() -> Route:
    return Route([ch("A", "B"), ch("B", "C"), ch("C", "D")])


class TestRoute:
    def test_empty_route_rejected(self):
        with pytest.raises(RouteError):
            Route([])

    def test_non_contiguous_route_rejected(self):
        with pytest.raises(RouteError):
            Route([ch("A", "B"), ch("C", "D")])

    def test_endpoints(self, abc_route):
        assert abc_route.source_switch == "A"
        assert abc_route.destination_switch == "D"

    def test_hop_count_and_len(self, abc_route):
        assert abc_route.hop_count == 3
        assert len(abc_route) == 3

    def test_switch_sequence(self, abc_route):
        assert abc_route.switches == ["A", "B", "C", "D"]

    def test_links_property(self, abc_route):
        assert abc_route.links == (Link("A", "B"), Link("B", "C"), Link("C", "D"))

    def test_uses_channel_and_link(self, abc_route):
        assert abc_route.uses_channel(ch("B", "C"))
        assert not abc_route.uses_channel(ch("B", "C", vc=1))
        assert abc_route.uses_link(Link("B", "C"))

    def test_index_of(self, abc_route):
        assert abc_route.index_of(ch("B", "C")) == 1
        with pytest.raises(RouteError):
            abc_route.index_of(ch("X", "Y"))

    def test_dependencies_are_consecutive_pairs(self, abc_route):
        deps = abc_route.dependencies()
        assert deps == [(ch("A", "B"), ch("B", "C")), (ch("B", "C"), ch("C", "D"))]

    def test_replace_channels_only_vc_change_allowed(self, abc_route):
        new = abc_route.replace_channels({ch("B", "C"): ch("B", "C", vc=1)})
        assert new[1].vc == 1
        with pytest.raises(RouteError):
            abc_route.replace_channels({ch("B", "C"): ch("B", "X")})

    def test_replace_at_positions(self, abc_route):
        new = abc_route.replace_at_positions({0: ch("A", "B", vc=2)})
        assert new[0].vc == 2
        assert new[1] == abc_route[1]

    def test_replace_at_bad_position(self, abc_route):
        with pytest.raises(RouteError):
            abc_route.replace_at_positions({5: ch("A", "B", vc=1)})

    def test_replace_at_position_wrong_link(self, abc_route):
        with pytest.raises(RouteError):
            abc_route.replace_at_positions({0: ch("A", "X", vc=1)})

    def test_equality_and_hash(self, abc_route):
        same = Route([ch("A", "B"), ch("B", "C"), ch("C", "D")])
        assert same == abc_route
        assert hash(same) == hash(abc_route)

    def test_getitem_and_iteration(self, abc_route):
        assert abc_route[0] == ch("A", "B")
        assert list(abc_route) == list(abc_route.channels)


class TestRouteSet:
    def test_set_and_get(self, abc_route):
        routes = RouteSet()
        routes.set_route("f0", abc_route)
        assert routes.route("f0") == abc_route
        assert routes.has_route("f0")
        assert "f0" in routes

    def test_missing_route_raises(self):
        with pytest.raises(RouteError):
            RouteSet().route("f0")

    def test_remove_route(self, abc_route):
        routes = RouteSet({"f0": abc_route})
        routes.remove_route("f0")
        assert not routes.has_route("f0")
        with pytest.raises(RouteError):
            routes.remove_route("f0")

    def test_empty_flow_name_rejected(self, abc_route):
        with pytest.raises(RouteError):
            RouteSet().set_route("", abc_route)

    def test_hop_count_statistics(self, abc_route):
        routes = RouteSet({"f0": abc_route, "f1": Route([ch("A", "B")])})
        assert routes.total_hop_count() == 4
        assert RouteSet().total_hop_count() == 0

    def test_copy_is_independent(self, abc_route):
        routes = RouteSet({"f0": abc_route})
        clone = routes.copy()
        clone.set_route("f1", abc_route)
        assert len(routes) == 1
        assert len(clone) == 2

    def test_items_sorted(self, abc_route):
        routes = RouteSet({"b": abc_route, "a": abc_route})
        assert [name for name, _ in routes.items()] == ["a", "b"]
