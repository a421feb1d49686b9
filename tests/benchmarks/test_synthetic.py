"""Tests for the generic traffic generators (repro.benchmarks.synthetic)."""

import pytest

from repro.benchmarks.synthetic import (
    default_mesh_traffic,
    default_ring_traffic,
    hotspot_traffic,
    neighbour_traffic,
    pipeline_traffic,
    uniform_random_traffic,
)
from repro.errors import BenchmarkError


class TestUniformRandom:
    def test_flow_count(self):
        traffic = uniform_random_traffic(10, flows_per_core=3)
        assert traffic.flow_count == 30

    def test_no_self_flows(self):
        traffic = uniform_random_traffic(8, flows_per_core=4, seed=5)
        assert all(f.src != f.dst for f in traffic.flows)

    def test_bandwidth_range(self):
        traffic = uniform_random_traffic(6, min_bandwidth=10, max_bandwidth=20, seed=2)
        assert all(10 <= f.bandwidth <= 20 for f in traffic.flows)

    def test_deterministic_for_seed(self):
        a = uniform_random_traffic(10, seed=7)
        b = uniform_random_traffic(10, seed=7)
        assert [(f.src, f.dst, f.bandwidth) for f in a.flows] == [
            (f.src, f.dst, f.bandwidth) for f in b.flows
        ]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(BenchmarkError):
            uniform_random_traffic(1)
        with pytest.raises(BenchmarkError):
            uniform_random_traffic(5, flows_per_core=5)


class TestHotspot:
    def test_hotspots_receive_from_everyone(self):
        traffic = hotspot_traffic(10, n_hotspots=1)
        assert traffic.in_degree("core0") == 9

    def test_replies_exist(self):
        traffic = hotspot_traffic(6, n_hotspots=1)
        assert traffic.out_degree("core0") >= 5

    def test_invalid_hotspot_count_rejected(self):
        with pytest.raises(BenchmarkError):
            hotspot_traffic(4, n_hotspots=4)
        with pytest.raises(BenchmarkError):
            hotspot_traffic(2)


class TestNeighbour:
    def test_ring_of_flows(self):
        traffic = neighbour_traffic(8)
        assert traffic.flow_count == 8
        assert traffic.bandwidth_between("core0", "core1") > 0

    def test_custom_hop_distance(self):
        traffic = neighbour_traffic(8, hops=3)
        assert traffic.bandwidth_between("core0", "core3") > 0

    def test_wraparound(self):
        traffic = neighbour_traffic(5, hops=2)
        assert traffic.bandwidth_between("core4", "core1") > 0

    def test_invalid_hops_rejected(self):
        with pytest.raises(BenchmarkError):
            neighbour_traffic(6, hops=6)


class TestDefaultTraffic:
    def test_one_core_per_switch(self):
        ring = default_ring_traffic(6)
        assert (ring.core_count, ring.flow_count) == (6, 6)
        assert ring.bandwidth_between("core4", "core0") > 0
        mesh = default_mesh_traffic(3, 3)
        # the three diagonal positions are their own transpose
        assert (mesh.core_count, mesh.flow_count) == (9, 6)
        assert mesh.bandwidth_between("core_2_0", "core_0_2") > 0


class TestPipeline:
    def test_linear_pipeline(self):
        traffic = pipeline_traffic(["a", "b", "c"])
        assert traffic.flow_count == 2
        assert traffic.bandwidth_between("a", "b") > 0

    def test_feedback_flows(self):
        traffic = pipeline_traffic(["a", "b", "c"], backward_fraction=0.5)
        assert traffic.flow_count == 4
        assert traffic.bandwidth_between("b", "a") == pytest.approx(100.0)

    def test_too_short_pipeline_rejected(self):
        with pytest.raises(BenchmarkError):
            pipeline_traffic(["only"])
