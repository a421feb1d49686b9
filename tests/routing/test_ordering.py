"""Tests for the resource-ordering baseline (repro.routing.ordering)."""

import pytest

from repro.core.cdg import build_cdg
from repro.errors import OrderingError
from repro.model.validation import validate_design
from repro.routing.ordering import (
    STRATEGY_HOP_INDEX,
    STRATEGY_LAYERED,
    apply_resource_ordering,
)


class TestHopIndexStrategy:
    def test_ring_needs_extra_vcs(self, ring_design_fixture):
        result = apply_resource_ordering(ring_design_fixture)
        # Longest route has 3 hops, so some link must host classes 0,1,2.
        assert result.extra_vcs == 3
        assert result.max_class == 2

    def test_resulting_cdg_is_acyclic(self, ring_design_fixture):
        result = apply_resource_ordering(ring_design_fixture)
        assert build_cdg(result.design).is_acyclic()

    def test_classes_strictly_increase_along_routes(self, ring_design_fixture):
        result = apply_resource_ordering(ring_design_fixture)
        for _name, route in result.design.routes.items():
            classes = [result.classes[c] for c in route]
            assert classes == sorted(classes)
            assert len(set(classes)) == len(classes)

    def test_original_design_untouched(self, ring_design_fixture):
        apply_resource_ordering(ring_design_fixture)
        assert ring_design_fixture.extra_vc_count == 0

    def test_physical_paths_preserved(self, ring_design_fixture):
        result = apply_resource_ordering(ring_design_fixture)
        for name, route in ring_design_fixture.routes.items():
            assert result.design.routes.route(name).links == route.links

    def test_modified_design_is_valid(self, ring_design_fixture):
        validate_design(apply_resource_ordering(ring_design_fixture).design)

    def test_acyclic_design_may_still_pay_overhead(self, d26_design_14sw):
        """The paper's key observation (Figure 8): even when the input design
        is already deadlock free, resource ordering adds VCs because class
        numbers must increase along every route."""
        design = d26_design_14sw.copy()
        assert build_cdg(design).is_acyclic()
        result = apply_resource_ordering(design)
        assert result.extra_vcs > 0

    def test_extra_vcs_counted_on_topology(self, ring_design_fixture):
        result = apply_resource_ordering(ring_design_fixture)
        assert result.design.extra_vc_count == result.extra_vcs

    def test_mesh_design_ordering(self, small_mesh_design):
        result = apply_resource_ordering(small_mesh_design)
        assert build_cdg(result.design).is_acyclic()
        assert result.extra_vcs >= 0
        validate_design(result.design)


class TestLayeredStrategy:
    def test_layered_is_deadlock_free(self, ring_design_fixture):
        result = apply_resource_ordering(ring_design_fixture, strategy=STRATEGY_LAYERED)
        assert build_cdg(result.design).is_acyclic()

    def test_layered_never_worse_than_hop_index_on_tree(self, d26_design_14sw):
        design = d26_design_14sw.copy()
        hop = apply_resource_ordering(design, strategy=STRATEGY_HOP_INDEX)
        layered = apply_resource_ordering(design, strategy=STRATEGY_LAYERED)
        assert layered.extra_vcs <= hop.extra_vcs

    def test_layered_classes_strictly_increase(self, small_ring_design):
        result = apply_resource_ordering(small_ring_design, strategy=STRATEGY_LAYERED)
        for _name, route in result.design.routes.items():
            classes = [result.classes[c] for c in route]
            assert classes == sorted(classes)
            assert len(set(classes)) == len(classes)

    def test_layered_valid_design(self, small_ring_design):
        validate_design(
            apply_resource_ordering(small_ring_design, strategy=STRATEGY_LAYERED).design
        )


class TestErrorsAndSummary:
    def test_unknown_strategy_rejected(self, ring_design_fixture):
        with pytest.raises(OrderingError):
            apply_resource_ordering(ring_design_fixture, strategy="magic")

    def test_summary_mentions_extra_vcs(self, ring_design_fixture):
        summary = apply_resource_ordering(ring_design_fixture).summary()
        assert "extra VC" in summary

    def test_classes_per_link_counts(self, ring_design_fixture):
        result = apply_resource_ordering(ring_design_fixture)
        assert sum(count - 1 for count in result.classes_per_link.values()) == (
            result.extra_vcs
        )
