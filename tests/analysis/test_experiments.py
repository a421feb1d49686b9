"""Tests for the three-way comparison driver (repro.analysis.experiments).

These tests assert the *shape* of the paper's results on a small
configuration: deadlock removal adds far fewer VCs than resource ordering,
which shows up as area and power savings, while staying close to the
unprotected design.
"""

import pytest

from repro.analysis.experiments import compare_methods
from repro.core.cdg import build_cdg


@pytest.fixture(scope="module")
def d36_8_comparison():
    """One comparison point reused by several tests (module-scoped)."""
    return compare_methods("D36_8", 14)


class TestCompareMethods:
    def test_both_methods_yield_deadlock_free_designs(self, d36_8_comparison):
        assert build_cdg(d36_8_comparison.removal.design).is_acyclic()
        assert build_cdg(d36_8_comparison.ordering.design).is_acyclic()

    def test_removal_uses_fewer_vcs_than_ordering(self, d36_8_comparison):
        assert d36_8_comparison.removal_extra_vcs < d36_8_comparison.ordering_extra_vcs

    def test_vc_reduction_is_large(self, d36_8_comparison):
        assert d36_8_comparison.vc_reduction_percent > 50.0

    def test_power_and_area_savings_positive(self, d36_8_comparison):
        assert d36_8_comparison.power_saving_percent > 0
        assert d36_8_comparison.area_saving_percent > 0

    def test_overhead_vs_unprotected_is_small(self, d36_8_comparison):
        assert d36_8_comparison.removal_power_overhead_percent < 10.0
        assert d36_8_comparison.removal_area_overhead_percent < 10.0

    def test_normalised_ordering_power_above_one(self, d36_8_comparison):
        assert d36_8_comparison.normalised_ordering_power > 1.0

    def test_as_row_contains_headline_fields(self, d36_8_comparison):
        row = d36_8_comparison.as_row()
        assert row["benchmark"] == "D36_8"
        assert row["switch_count"] == 14
        assert row["removal_extra_vcs"] == d36_8_comparison.removal_extra_vcs
        assert "power_saving_percent" in row
        assert "removal_runtime_s" in row

    def test_accepts_traffic_object(self, d26_traffic):
        comparison = compare_methods(d26_traffic, 8)
        assert comparison.benchmark == "D26_media"
        assert comparison.switch_count == 8

    def test_synthesis_overrides_forwarded(self):
        sparse = compare_methods("D36_8", 10, synthesis_overrides={"extra_link_fraction": 0.0})
        assert sparse.removal_extra_vcs == 0


class TestSweep:
    def test_sweep_produces_one_row_per_count(self, d26_traffic):
        rows = [compare_methods(d26_traffic, count) for count in (5, 8)]
        assert [row.switch_count for row in rows] == [5, 8]

    def test_d26_media_removal_is_mostly_free(self, d26_traffic):
        """Figure 8's message: application-specific topologies for D26_media
        are (almost always) deadlock free, so removal costs ~nothing while
        ordering pays per-hop classes."""
        rows = [compare_methods(d26_traffic, count) for count in (8, 14, 20)]
        assert sum(row.removal_extra_vcs for row in rows) <= 2
        assert all(
            row.ordering_extra_vcs >= row.removal_extra_vcs for row in rows
        )
        assert any(row.ordering_extra_vcs > 5 for row in rows)
