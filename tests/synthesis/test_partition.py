"""Tests for core-to-switch partitioning (repro.synthesis.partition)."""

import math
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.reports import FIGURE9_SWITCH_COUNTS
from repro.benchmarks.registry import get_benchmark
from repro.benchmarks.synthetic import neighbour_traffic, pipeline_traffic
from repro.errors import SynthesisError
from repro.model.traffic import CommunicationGraph
from repro.synthesis.partition import (
    cluster_sizes,
    internal_bandwidth_fraction,
    partition_cores,
)


# ----------------------------------------------------------------------
# Reference oracle: the naive greedy merge, which re-scans every flow for
# every cluster pair at every step.  ``partition_cores`` caches the pair
# weights and must return exactly the same core map.
# ----------------------------------------------------------------------
def _pair_weight(
    traffic: CommunicationGraph, cluster_a: List[str], cluster_b: List[str]
) -> float:
    """Total bandwidth exchanged between two clusters (both directions)."""
    members_b = set(cluster_b)
    weight = 0.0
    for flow in traffic.flows:
        if flow.src in cluster_a and flow.dst in members_b:
            weight += flow.bandwidth
        elif flow.dst in cluster_a and flow.src in members_b:
            weight += flow.bandwidth
    return weight


def reference_partition_cores(
    traffic: CommunicationGraph,
    n_switches: int,
    *,
    balance_slack: int = 1,
    switch_prefix: str = "sw",
) -> Dict[str, str]:
    """The naive greedy merge ``partition_cores`` must reproduce."""
    cores = traffic.cores
    if n_switches < 1:
        raise SynthesisError(f"switch count must be positive, got {n_switches}")
    if n_switches > len(cores):
        raise SynthesisError(
            f"cannot spread {len(cores)} cores over {n_switches} switches; "
            "switch count must not exceed the core count"
        )

    max_size = math.ceil(len(cores) / n_switches) + max(0, balance_slack)
    clusters: List[List[str]] = [[core] for core in sorted(cores)]

    while len(clusters) > n_switches:
        best_key: Optional[Tuple[float, int]] = None
        best_pair: Optional[Tuple[int, int]] = None
        for i in range(len(clusters)):
            for j in range(i + 1, len(clusters)):
                if len(clusters[i]) + len(clusters[j]) > max_size:
                    continue
                weight = _pair_weight(traffic, clusters[i], clusters[j])
                # Prefer the heaviest pair; among equals, the smallest merged
                # cluster (keeps the partition balanced and deterministic).
                key = (weight, -(len(clusters[i]) + len(clusters[j])))
                if best_key is None or key > best_key:
                    best_key = key
                    best_pair = (i, j)
        if best_pair is None:
            # Every merge would violate the balance cap: merge the two
            # smallest clusters regardless (still deterministic).
            order = sorted(range(len(clusters)), key=lambda k: (len(clusters[k]), clusters[k][0]))
            i, j = sorted(order[:2])
        else:
            i, j = best_pair
        clusters[i] = sorted(clusters[i] + clusters[j])
        del clusters[j]

    # Deterministic switch numbering: clusters ordered by their first core.
    clusters.sort(key=lambda cluster: cluster[0])
    core_map: Dict[str, str] = {}
    for index, cluster in enumerate(clusters):
        switch = f"{switch_prefix}{index}"
        for core in cluster:
            core_map[core] = switch
    return core_map


#: Fractional bandwidths whose sums round differently with the order of
#: addition (0.1 + 0.2 + 0.3 != 0.1 + (0.2 + 0.3)), plus one integral value.
TIE_PRONE_BANDWIDTHS = (0.1, 0.2, 0.3, 0.7, 4.0)


@st.composite
def random_traffic(draw) -> CommunicationGraph:
    """4-14 cores, some without flows, with parallel and reversed flows."""
    n_cores = draw(st.integers(min_value=4, max_value=14))
    cores = [f"c{index:02d}" for index in range(n_cores)]
    idle = draw(st.sets(st.sampled_from(cores), max_size=n_cores // 3))
    active = [core for core in cores if core not in idle]
    traffic = CommunicationGraph("random")
    traffic.add_cores(draw(st.permutations(cores)))
    endpoints = st.tuples(st.sampled_from(active), st.sampled_from(active)).filter(
        lambda pair: pair[0] != pair[1]
    )
    flows = draw(
        st.lists(st.tuples(endpoints, st.sampled_from(TIE_PRONE_BANDWIDTHS)), max_size=3 * n_cores)
    )
    # Names f0, f1, f10, ...: flow-name order is not creation order.
    for index, ((src, dst), bandwidth) in enumerate(flows):
        traffic.add_flow(f"f{index}", src, dst, bandwidth)
    return traffic


class TestPartitionBasics:
    def test_every_core_is_mapped(self, d26_traffic):
        core_map = partition_cores(d26_traffic, 8)
        assert set(core_map) == set(d26_traffic.cores)

    def test_switch_count_respected(self, d26_traffic):
        core_map = partition_cores(d26_traffic, 8)
        assert len(set(core_map.values())) == 8

    def test_switch_names_use_prefix(self, d26_traffic):
        core_map = partition_cores(d26_traffic, 4, switch_prefix="router")
        assert all(switch.startswith("router") for switch in core_map.values())

    def test_one_switch_puts_everything_together(self, d26_traffic):
        core_map = partition_cores(d26_traffic, 1)
        assert set(core_map.values()) == {"sw0"}

    def test_one_core_per_switch_at_maximum(self, d26_traffic):
        core_map = partition_cores(d26_traffic, d26_traffic.core_count)
        sizes = cluster_sizes(core_map)
        assert all(size == 1 for size in sizes.values())

    def test_deterministic(self, d26_traffic):
        assert partition_cores(d26_traffic, 8) == partition_cores(d26_traffic, 8)


class TestBalance:
    def test_cluster_sizes_respect_slack(self, d36_8_traffic):
        core_map = partition_cores(d36_8_traffic, 9, balance_slack=1)
        sizes = cluster_sizes(core_map)
        # ceil(36 / 9) + 1 = 5
        assert max(sizes.values()) <= 5

    def test_zero_slack_gives_tight_balance(self, d26_traffic):
        core_map = partition_cores(d26_traffic, 13, balance_slack=0)
        sizes = cluster_sizes(core_map)
        assert max(sizes.values()) <= 2


class TestQuality:
    def test_communicating_cores_end_up_together(self):
        # Two independent pipelines: each should collapse into one switch.
        traffic = pipeline_traffic(["a0", "a1", "a2"], bandwidth=500.0)
        traffic.add_cores(["b0", "b1", "b2"])
        traffic.add_flow("pb0", "b0", "b1", 500.0)
        traffic.add_flow("pb1", "b1", "b2", 500.0)
        core_map = partition_cores(traffic, 2)
        assert core_map["a0"] == core_map["a1"] == core_map["a2"]
        assert core_map["b0"] == core_map["b1"] == core_map["b2"]
        assert core_map["a0"] != core_map["b0"]

    def test_internal_fraction_improves_with_fewer_switches(self, d26_traffic):
        few = internal_bandwidth_fraction(d26_traffic, partition_cores(d26_traffic, 4))
        many = internal_bandwidth_fraction(d26_traffic, partition_cores(d26_traffic, 20))
        assert few >= many

    def test_internal_fraction_bounds(self, d26_traffic):
        fraction = internal_bandwidth_fraction(d26_traffic, partition_cores(d26_traffic, 8))
        assert 0.0 <= fraction <= 1.0

    def test_neighbour_traffic_partition(self):
        traffic = neighbour_traffic(12)
        core_map = partition_cores(traffic, 4)
        assert len(set(core_map.values())) == 4

    def test_internal_fraction_rejects_an_empty_map(self, d26_traffic):
        with pytest.raises(SynthesisError, match="unmapped"):
            internal_bandwidth_fraction(d26_traffic, {})

    def test_internal_fraction_names_the_unmapped_cores(self, d26_traffic):
        core_map = partition_cores(d26_traffic, 8)
        flow = d26_traffic.flows[0]
        del core_map[flow.src], core_map[flow.dst]
        with pytest.raises(SynthesisError) as excinfo:
            internal_bandwidth_fraction(d26_traffic, core_map)
        assert flow.src in str(excinfo.value) and flow.dst in str(excinfo.value)


class TestBalanceCapFallback:
    def test_merges_the_two_smallest_clusters_when_no_merge_fits(self):
        # Four disjoint pairs, 3 switches, no slack: the cap is ceil(8/3) = 3,
        # so once every pair is one 2-core cluster no merge fits under it and
        # the two smallest clusters (the a and b pairs, by first core) merge.
        traffic = CommunicationGraph("pairs")
        for group in "abcd":
            traffic.add_cores([f"{group}0", f"{group}1"])
            traffic.add_flow(f"f{group}", f"{group}0", f"{group}1", 100.0)
        core_map = partition_cores(traffic, 3, balance_slack=0)
        assert core_map == {
            "a0": "sw0", "a1": "sw0", "b0": "sw0", "b1": "sw0",
            "c0": "sw1", "c1": "sw1",
            "d0": "sw2", "d1": "sw2",
        }
        assert core_map == reference_partition_cores(traffic, 3, balance_slack=0)


class TestMatchesReference:
    @given(traffic=random_traffic())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_random_traffic_every_switch_count_and_slack(self, traffic):
        for n_switches in range(1, traffic.core_count + 1):
            for slack in range(3):
                assert partition_cores(
                    traffic, n_switches, balance_slack=slack
                ) == reference_partition_cores(traffic, n_switches, balance_slack=slack)

    def test_float_order_decides_a_tie(self):
        # a and b merge first.  The merged pair (ab, k) carries f0 = 0.3 and
        # f2 = 0.1 from a and f1 = 0.2 from b.  Summed in flow-name order
        # that is exactly 0.6, a tie with (x, y) that the smaller merge
        # wins.  Adding the cached weights, (0.3 + 0.1) + 0.2, or a's flows
        # before b's gives 0.6000000000000001, and (ab, k) would merge.
        traffic = CommunicationGraph("tie")
        traffic.add_cores(["a", "b", "k", "x", "y"])
        traffic.add_flow("fab", "a", "b", 4.0)
        traffic.add_flow("f0", "k", "a", 0.3)
        traffic.add_flow("f1", "k", "b", 0.2)
        traffic.add_flow("f2", "k", "a", 0.1)
        traffic.add_flow("fxy", "x", "y", 0.6)
        core_map = partition_cores(traffic, 3)
        assert core_map == {"a": "sw0", "b": "sw0", "k": "sw1", "x": "sw2", "y": "sw2"}
        assert core_map == reference_partition_cores(traffic, 3)

    @pytest.mark.parametrize(
        "benchmark_name, switch_counts",
        [
            ("D26_media", range(1, 27)),
            ("D35_bott", range(1, 36)),
            ("D36_8", FIGURE9_SWITCH_COUNTS),
        ],
    )
    def test_soc_benchmarks(self, benchmark_name, switch_counts):
        # D26_media and D35_bott have many equal pair weights, so this pins
        # the tie-break order on the paper's benchmarks at every switch count.
        traffic = get_benchmark(benchmark_name, seed=0)
        for n_switches in switch_counts:
            assert partition_cores(traffic, n_switches) == reference_partition_cores(
                traffic, n_switches
            ), n_switches


class TestErrors:
    def test_too_many_switches_rejected(self, d26_traffic):
        with pytest.raises(SynthesisError):
            partition_cores(d26_traffic, d26_traffic.core_count + 1)

    def test_zero_switches_rejected(self, d26_traffic):
        with pytest.raises(SynthesisError):
            partition_cores(d26_traffic, 0)
