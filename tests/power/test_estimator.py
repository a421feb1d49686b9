"""Tests for NoC-level power/area estimation (repro.power.estimator)."""

import pytest

from repro.core.removal import remove_deadlocks
from repro.power.estimator import estimate_area, estimate_power, estimate_power_and_area
from repro.power.orion import TechnologyParameters
from repro.routing.ordering import apply_resource_ordering


class TestEstimatePower:
    def test_every_router_and_link_reported(self, ring_design_fixture):
        report = estimate_power(ring_design_fixture)
        assert set(report.router_power_mw) == set(ring_design_fixture.topology.switches)
        assert set(report.link_power_mw) == set(ring_design_fixture.topology.links)

    def test_totals_are_sums(self, ring_design_fixture):
        report = estimate_power(ring_design_fixture)
        assert report.total_power_mw == pytest.approx(
            sum(report.router_power_mw.values()) + sum(report.link_power_mw.values())
        )

    def test_power_is_positive(self, d26_design_14sw):
        assert estimate_power(d26_design_14sw).total_power_mw > 0

    def test_summary_mentions_mw(self, ring_design_fixture):
        assert "mW" in estimate_power(ring_design_fixture).summary()

    def test_adding_vcs_increases_power(self, ring_design_fixture):
        base = estimate_power(ring_design_fixture).total_power_mw
        modified = ring_design_fixture.copy()
        for link in modified.topology.links:
            modified.topology.add_virtual_channel(link)
        assert estimate_power(modified).total_power_mw > base

    def test_custom_technology(self, ring_design_fixture):
        small = estimate_power(
            ring_design_fixture, tech=TechnologyParameters(tech_nm=45)
        ).total_power_mw
        big = estimate_power(
            ring_design_fixture, tech=TechnologyParameters(tech_nm=90)
        ).total_power_mw
        assert small < big


class TestEstimateArea:
    def test_totals_are_sums(self, ring_design_fixture):
        report = estimate_area(ring_design_fixture)
        assert report.total_area_mm2 == pytest.approx(
            report.total_router_area_mm2 + report.total_link_area_mm2
        )

    def test_adding_vcs_increases_area(self, ring_design_fixture):
        base = estimate_area(ring_design_fixture).total_area_mm2
        modified = ring_design_fixture.copy()
        for link in modified.topology.links:
            modified.topology.add_virtual_channel(link)
        assert estimate_area(modified).total_area_mm2 > base

    def test_summary_mentions_mm2(self, ring_design_fixture):
        assert "mm²" in estimate_area(ring_design_fixture).summary()


class TestPaperShapedComparisons:
    """The ratios the paper's evaluation relies on."""

    def test_ordering_costs_more_power_than_removal(self, d36_8_design_14sw):
        design = d36_8_design_14sw.copy()
        removal = remove_deadlocks(design)
        ordering = apply_resource_ordering(design)
        removal_power = estimate_power(removal.design).total_power_mw
        ordering_power = estimate_power(ordering.design).total_power_mw
        assert ordering_power > removal_power

    def test_ordering_costs_more_area_than_removal(self, d36_8_design_14sw):
        design = d36_8_design_14sw.copy()
        removal = remove_deadlocks(design)
        ordering = apply_resource_ordering(design)
        assert (
            estimate_area(ordering.design).total_area_mm2
            > estimate_area(removal.design).total_area_mm2
        )


class TestFusedEstimation:
    def test_fused_reports_equal_standalone(self, d36_8_design_14sw):
        """estimate_power_and_area shares one derivation pass but must be
        value-identical to the two standalone entry points."""
        power, area = estimate_power_and_area(d36_8_design_14sw)
        assert power.router_power_mw == estimate_power(d36_8_design_14sw).router_power_mw
        assert power.link_power_mw == estimate_power(d36_8_design_14sw).link_power_mw
        assert area.router_area_mm2 == estimate_area(d36_8_design_14sw).router_area_mm2
        assert area.link_area_mm2 == estimate_area(d36_8_design_14sw).link_area_mm2

    def test_fused_honours_custom_tech(self, ring_design_fixture):
        tech = TechnologyParameters(tech_nm=45.0, voltage=0.9)
        power, area = estimate_power_and_area(ring_design_fixture, tech=tech)
        assert power.total_power_mw == pytest.approx(
            estimate_power(ring_design_fixture, tech=tech).total_power_mw
        )
        assert area.total_area_mm2 == pytest.approx(
            estimate_area(ring_design_fixture, tech=tech).total_area_mm2
        )
