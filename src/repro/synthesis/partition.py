"""Traffic-weighted core-to-switch partitioning.

Greedy agglomerative clustering: every core starts in its own cluster and
the pair of clusters exchanging the most bandwidth is merged, subject to a
balance cap, until the requested number of clusters (= switches) remains.
This mirrors the first phase of application-specific topology synthesis
flows: heavily communicating cores end up behind the same switch, so their
traffic never enters the switch-to-switch network.

Every cluster pair's weight is cached, together with the flows that cross
the pair, and a merge recomputes only the pairs of the merged cluster.  A
weight is always re-summed over its flows in flow-name order, from zero,
with plain float additions: exactly the sum the naive merge computes by
scanning all flows for every pair at every step.  Equal weights therefore
tie as they do there, and the partition equals the naive one bit for bit.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.errors import SynthesisError
from repro.model.traffic import CommunicationGraph


def _bandwidth_sum(indices: List[int], bandwidths: List[float]) -> float:
    """Sum of ``bandwidths[index]`` over ``indices``, added in that order.

    A plain loop on purpose: ``sum`` compensates float rounding on Python
    3.12 and later, and another rounding can break a tie between pair
    weights differently.
    """
    total = 0.0
    for index in indices:
        total += bandwidths[index]
    return total


def partition_cores(
    traffic: CommunicationGraph,
    n_switches: int,
    *,
    balance_slack: int = 1,
    switch_prefix: str = "sw",
) -> Dict[str, str]:
    """Partition the cores of ``traffic`` into ``n_switches`` groups.

    Returns the core-to-switch mapping with switches named
    ``{switch_prefix}0 .. {switch_prefix}{n_switches-1}``.

    Parameters
    ----------
    balance_slack:
        How many cores beyond the perfectly balanced size
        ``ceil(core_count / n_switches)`` a cluster may hold.  A small slack
        lets tightly-coupled groups stay together without letting a single
        switch absorb everything.  The cap can be exceeded: when no pair of
        clusters fits under it, the two smallest clusters merge anyway.

    Raises
    ------
    SynthesisError
        When ``n_switches`` is not in ``[1, core_count]``.
    """
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

    # crossing[i][j] holds the indices into ``flows`` (ascending, so in
    # flow-name order) of the flows between clusters i and j, and
    # weight[i][j] the sum of their bandwidths in that order.  Both are
    # symmetric and positional: they shrink with ``clusters`` on a merge.
    flows = traffic.flows
    bandwidths = [flow.bandwidth for flow in flows]
    position = {cluster[0]: index for index, cluster in enumerate(clusters)}
    crossing: List[List[List[int]]] = [[[] for _ in clusters] for _ in clusters]
    for index, flow in enumerate(flows):
        a, b = position[flow.src], position[flow.dst]
        crossing[a][b].append(index)
        crossing[b][a].append(index)
    weight = [[_bandwidth_sum(indices, bandwidths) for indices in row] for row in crossing]

    while len(clusters) > n_switches:
        sizes = [len(cluster) for cluster in clusters]
        best_key: Optional[Tuple[float, int]] = None
        best_pair: Optional[Tuple[int, int]] = None
        for i in range(len(clusters)):
            row = weight[i]
            for j in range(i + 1, len(clusters)):
                merged_size = sizes[i] + sizes[j]
                if merged_size > max_size:
                    continue
                # Prefer the heaviest pair; among equals, the smallest merged
                # cluster (keeps the partition balanced and deterministic).
                key = (row[j], -merged_size)
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

        # Only the pairs of the merged cluster change.  A pair that gains
        # flows from j re-sums all of its flows in flow-name order, never
        # ``weight[i][k] + weight[j][k]``: that rounds differently.
        for k, from_j in enumerate(crossing[j]):
            if k == i or k == j or not from_j:
                continue
            indices = sorted(crossing[i][k] + from_j)
            crossing[i][k] = crossing[k][i] = indices
            weight[i][k] = weight[k][i] = _bandwidth_sum(indices, bandwidths)
        for matrix in (crossing, weight):
            del matrix[j]
            for matrix_row in matrix:
                del matrix_row[j]

    # Deterministic switch numbering: clusters ordered by their first core.
    clusters.sort(key=lambda cluster: cluster[0])
    core_map: Dict[str, str] = {}
    for index, cluster in enumerate(clusters):
        switch = f"{switch_prefix}{index}"
        for core in cluster:
            core_map[core] = switch
    return core_map


def cluster_sizes(core_map: Dict[str, str]) -> Dict[str, int]:
    """Number of cores attached to every switch in a core mapping."""
    sizes: Dict[str, int] = {}
    for switch in core_map.values():
        sizes[switch] = sizes.get(switch, 0) + 1
    return sizes


def internal_bandwidth_fraction(
    traffic: CommunicationGraph, core_map: Dict[str, str]
) -> float:
    """Fraction of total bandwidth that stays inside a single switch.

    A higher value means the partitioning absorbed more traffic locally; it
    is the quantity the greedy merge maximises and a useful quality metric
    for tests.

    Raises
    ------
    SynthesisError
        When ``core_map`` leaves a core that sends or receives a flow
        unmapped.
    """
    flows = traffic.flows
    unmapped = sorted({core for flow in flows for core in (flow.src, flow.dst)} - core_map.keys())
    if unmapped:
        raise SynthesisError(f"core map leaves flow endpoints unmapped: {', '.join(unmapped)}")
    total = traffic.total_bandwidth
    if total == 0:
        return 0.0
    internal = sum(
        flow.bandwidth for flow in flows if core_map[flow.src] == core_map[flow.dst]
    )
    return internal / total
