"""Generic synthetic traffic generators.

These are the standard patterns of the NoC literature (uniform random,
hotspot, nearest neighbour, pipeline).  They are used by the property-based
tests (any traffic must yield a valid, deadlock-free design after removal),
by the parametric registry benchmarks and as building blocks of the SoC
benchmark reconstructions.  :func:`default_ring_traffic` and
:func:`default_mesh_traffic` are the one-core-per-switch patterns the tests
and benches route over the ``ring`` and ``mesh`` topology families.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.errors import BenchmarkError
from repro.model.traffic import CommunicationGraph


def _core_names(n_cores: int, prefix: str) -> List[str]:
    return [f"{prefix}{i}" for i in range(n_cores)]


def uniform_random_traffic(
    n_cores: int,
    flows_per_core: int = 2,
    *,
    seed: int = 0,
    min_bandwidth: float = 10.0,
    max_bandwidth: float = 400.0,
    prefix: str = "core",
    name: Optional[str] = None,
) -> CommunicationGraph:
    """Every core sends to ``flows_per_core`` uniformly chosen partners."""
    if n_cores < 2:
        raise BenchmarkError(f"need at least 2 cores, got {n_cores}")
    if flows_per_core < 1 or flows_per_core > n_cores - 1:
        raise BenchmarkError(
            f"flows_per_core must be in [1, {n_cores - 1}], got {flows_per_core}"
        )
    rng = random.Random(seed)
    traffic = CommunicationGraph(name or f"uniform{n_cores}x{flows_per_core}")
    cores = _core_names(n_cores, prefix)
    traffic.add_cores(cores)
    flow_id = 0
    for src in cores:
        partners = [c for c in cores if c != src]
        rng.shuffle(partners)
        for dst in partners[:flows_per_core]:
            bandwidth = round(rng.uniform(min_bandwidth, max_bandwidth), 1)
            traffic.add_flow(f"f{flow_id}", src, dst, bandwidth)
            flow_id += 1
    return traffic


def hotspot_traffic(
    n_cores: int,
    n_hotspots: int = 2,
    *,
    seed: int = 0,
    hotspot_bandwidth: float = 400.0,
    background_bandwidth: float = 40.0,
    prefix: str = "core",
    name: Optional[str] = None,
) -> CommunicationGraph:
    """All cores send to a few hotspot cores (memory-controller pattern),
    plus light background traffic to a random partner."""
    if n_cores < 3:
        raise BenchmarkError(f"need at least 3 cores, got {n_cores}")
    if n_hotspots < 1 or n_hotspots >= n_cores:
        raise BenchmarkError(f"n_hotspots must be in [1, {n_cores - 1}], got {n_hotspots}")
    rng = random.Random(seed)
    traffic = CommunicationGraph(name or f"hotspot{n_cores}x{n_hotspots}")
    cores = _core_names(n_cores, prefix)
    traffic.add_cores(cores)
    hotspots = cores[:n_hotspots]
    flow_id = 0
    for src in cores:
        if src in hotspots:
            continue
        hotspot = hotspots[flow_id % n_hotspots]
        traffic.add_flow(f"f{flow_id}", src, hotspot, hotspot_bandwidth)
        flow_id += 1
        # replies from the hotspot back to the requester
        traffic.add_flow(f"f{flow_id}", hotspot, src, hotspot_bandwidth / 2)
        flow_id += 1
        others = [c for c in cores if c not in (src, hotspot)]
        dst = others[rng.randrange(len(others))]
        traffic.add_flow(f"f{flow_id}", src, dst, background_bandwidth)
        flow_id += 1
    return traffic


def neighbour_traffic(
    n_cores: int,
    *,
    hops: int = 1,
    bandwidth: float = 200.0,
    prefix: str = "core",
    name: Optional[str] = None,
) -> CommunicationGraph:
    """Core ``i`` sends to core ``i + hops`` (mod n) — a ring of flows."""
    if n_cores < 2:
        raise BenchmarkError(f"need at least 2 cores, got {n_cores}")
    if hops % n_cores == 0:
        raise BenchmarkError("hops must not be a multiple of the core count")
    traffic = CommunicationGraph(name or f"neighbour{n_cores}")
    cores = _core_names(n_cores, prefix)
    traffic.add_cores(cores)
    for i, src in enumerate(cores):
        dst = cores[(i + hops) % n_cores]
        traffic.add_flow(f"f{i}", src, dst, bandwidth)
    return traffic


def pipeline_traffic(
    stage_names: List[str],
    *,
    bandwidth: float = 200.0,
    backward_fraction: float = 0.0,
    name: Optional[str] = None,
) -> CommunicationGraph:
    """A linear processing pipeline: each stage feeds the next one.

    ``backward_fraction > 0`` adds feedback flows from each stage to its
    predecessor (rate-control traffic), which is common in video codecs.
    """
    if len(stage_names) < 2:
        raise BenchmarkError("a pipeline needs at least 2 stages")
    traffic = CommunicationGraph(name or "pipeline")
    traffic.add_cores(stage_names)
    flow_id = 0
    for src, dst in zip(stage_names, stage_names[1:]):
        traffic.add_flow(f"p{flow_id}", src, dst, bandwidth)
        flow_id += 1
        if backward_fraction > 0:
            traffic.add_flow(f"p{flow_id}", dst, src, bandwidth * backward_fraction)
            flow_id += 1
    return traffic


def default_ring_traffic(n_switches: int, *, name: Optional[str] = None) -> CommunicationGraph:
    """One core per switch, each sending to the core two hops downstream."""
    traffic = CommunicationGraph(name or f"ring{n_switches}_traffic")
    for i in range(n_switches):
        traffic.add_core(f"core{i}")
    for i in range(n_switches):
        dst = (i + 2) % n_switches
        traffic.add_flow(f"f{i}", f"core{i}", f"core{dst}", bandwidth=100.0)
    return traffic


def default_mesh_traffic(
    rows: int, cols: int, *, name: Optional[str] = None
) -> CommunicationGraph:
    """One core per mesh position, each sending to its transposed position."""
    traffic = CommunicationGraph(name or f"mesh{rows}x{cols}_traffic")
    for x in range(cols):
        for y in range(rows):
            traffic.add_core(f"core_{x}_{y}")
    flow_id = 0
    for x in range(cols):
        for y in range(rows):
            tx, ty = y % cols, x % rows
            if (x, y) == (tx, ty):
                continue
            traffic.add_flow(
                f"f{flow_id}", f"core_{x}_{y}", f"core_{tx}_{ty}", bandwidth=50.0
            )
            flow_id += 1
    return traffic
