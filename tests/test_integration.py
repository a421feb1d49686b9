"""End-to-end integration tests: the full pipelines a user would run."""

import pytest

from repro import (
    SimulationConfig,
    SynthesisConfig,
    apply_resource_ordering,
    build_cdg,
    compare_methods,
    estimate_area,
    estimate_power,
    get_benchmark,
    load_design,
    paper_ring_design,
    remove_deadlocks,
    save_design,
    simulate_design,
    synthesize_design,
    validate_design,
)


class TestPaperWorkedExample:
    """The complete Figures 1-4 story in one test."""

    def test_ring_example_end_to_end(self):
        design = paper_ring_design()
        cdg = build_cdg(design)
        assert not cdg.is_acyclic()

        result = remove_deadlocks(design)
        assert result.added_vc_count == 1
        assert build_cdg(result.design).is_acyclic()

        ordering = apply_resource_ordering(design)
        assert ordering.extra_vcs == 3
        assert result.added_vc_count < ordering.extra_vcs

        removal_area = estimate_area(result.design).total_area_mm2
        ordering_area = estimate_area(ordering.design).total_area_mm2
        assert removal_area < ordering_area


class TestBenchmarkPipeline:
    """Benchmark -> synthesis -> removal -> power/area -> simulation."""

    def test_full_pipeline_on_d36_8(self, tmp_path):
        traffic = get_benchmark("D36_8")
        design = synthesize_design(traffic, SynthesisConfig(n_switches=12))
        validate_design(design)

        result = remove_deadlocks(design)
        assert build_cdg(result.design).is_acyclic()

        power = estimate_power(result.design)
        area = estimate_area(result.design)
        assert power.total_power_mw > 0
        assert area.total_area_mm2 > 0

        # The design survives a serialization round trip...
        path = save_design(result.design, tmp_path / "d36_8_fixed.json")
        reloaded = load_design(path)
        assert build_cdg(reloaded).is_acyclic()

        # ...and runs deadlock free in the wormhole simulator.
        stats = simulate_design(
            reloaded,
            max_cycles=1500,
            config=SimulationConfig(injection_scale=1.0, seed=0),
        )
        assert not stats.deadlock_detected
        assert stats.packets_delivered > 0

    def test_comparison_matches_component_calls(self):
        comparison = compare_methods("D26_media", 10)
        standalone = remove_deadlocks(comparison.unprotected)
        assert comparison.removal_extra_vcs == standalone.added_vc_count


class TestCrossMethodConsistency:
    def test_both_methods_protect_the_same_design(self):
        traffic = get_benchmark("D36_6")
        design = synthesize_design(traffic, SynthesisConfig(n_switches=12))
        removal = remove_deadlocks(design)
        ordering = apply_resource_ordering(design)
        assert build_cdg(removal.design).is_acyclic()
        assert build_cdg(ordering.design).is_acyclic()
        assert removal.added_vc_count <= ordering.extra_vcs
        # Physical topology (links) is identical in all three variants.
        assert sorted(removal.design.topology.links) == sorted(design.topology.links)
        assert sorted(ordering.design.topology.links) == sorted(design.topology.links)

    def test_simulation_agrees_with_cdg_on_protected_designs(self):
        """Runtime check of the paper's core guarantee on a small design."""
        design = paper_ring_design()
        config = SimulationConfig(injection_scale=6.0, buffer_depth=2, seed=1)

        unprotected_stats = simulate_design(design, max_cycles=4000, config=config)
        assert unprotected_stats.deadlock_detected

        for protected in (
            remove_deadlocks(design).design,
            apply_resource_ordering(design).design,
        ):
            stats = simulate_design(protected, max_cycles=4000, config=config)
            assert not stats.deadlock_detected
            assert stats.packets_delivered > unprotected_stats.packets_delivered
