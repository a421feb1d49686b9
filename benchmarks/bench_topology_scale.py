"""Scaling sweep of the topology families through the full stack.

For every registered topology family this benchmark walks a ladder of
sizes, and at each size synthesizes the family member for a matching
parametric uniform workload, runs the paper's deadlock-removal algorithm
and wormhole-simulates the protected design under the compiled engine —
recording the wall-clock of each stage.  This is the datacenter-scale
question behind the family layer: does removal stay tractable (and the
fabric deadlock free) as the network grows from SoC-sized rings to an
80-switch fat-tree?

Results go to ``BENCH_topology_scale.json`` at the repository root.  Run
from the repository root::

    PYTHONPATH=src python benchmarks/bench_topology_scale.py           # full
    PYTHONPATH=src python benchmarks/bench_topology_scale.py --smoke   # CI, <60 s
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
ROOT_RESULT_PATH = REPO_ROOT / "BENCH_topology_scale.json"

from repro.analysis.performance import measure_load_point
from repro.benchmarks.registry import get_benchmark
from repro.core.cdg import build_cdg
from repro.core.removal import remove_deadlocks
from repro.simulation.simulator import SimulationConfig
from repro.synthesis.families import family_design, family_size

#: Size ladders (three points per family) of the CI smoke configuration.
SMOKE_POINTS: Dict[str, List[dict]] = {
    "ring": [{"n_switches": 4}, {"n_switches": 6}, {"n_switches": 8}],
    "mesh": [
        {"rows": 2, "cols": 2},
        {"rows": 3, "cols": 3},
        {"rows": 4, "cols": 4},
    ],
    "torus": [
        {"rows": 3, "cols": 3},
        {"rows": 3, "cols": 4},
        {"rows": 4, "cols": 4},
    ],
    "fat_tree": [{"k": 2}, {"k": 4}, {"k": 6}],
    "clos": [
        {"spines": 2, "leaves": 4},
        {"spines": 3, "leaves": 6},
        {"spines": 4, "leaves": 8},
    ],
    "vl2": [
        {"spines": 2, "leaves": 4},
        {"spines": 3, "leaves": 6},
        {"spines": 4, "leaves": 8},
    ],
    "dragonfly": [
        {"groups": 2, "routers": 2},
        {"groups": 3, "routers": 3},
        {"groups": 4, "routers": 4},
    ],
}

#: The full ladders stretch the top end — including the acceptance point,
#: an 80-switch fat-tree (k=8).
FULL_POINTS: Dict[str, List[dict]] = {
    "ring": [{"n_switches": 8}, {"n_switches": 16}, {"n_switches": 32}],
    "mesh": [
        {"rows": 3, "cols": 3},
        {"rows": 5, "cols": 5},
        {"rows": 7, "cols": 7},
    ],
    "torus": [
        {"rows": 3, "cols": 3},
        {"rows": 5, "cols": 5},
        {"rows": 7, "cols": 7},
    ],
    "fat_tree": [{"k": 4}, {"k": 6}, {"k": 8}],
    "clos": [
        {"spines": 4, "leaves": 8},
        {"spines": 8, "leaves": 16},
        {"spines": 12, "leaves": 24},
    ],
    "vl2": [
        {"spines": 4, "leaves": 8},
        {"spines": 8, "leaves": 16},
        {"spines": 12, "leaves": 24},
    ],
    "dragonfly": [
        {"groups": 3, "routers": 3},
        {"groups": 4, "routers": 4},
        {"groups": 6, "routers": 5},
    ],
}


def _run_point(
    family: str, params: dict, *, seed: int, sim_cycles: int, injection_scale: float
) -> dict:
    """Synthesize, protect and simulate one family member, timing each stage."""
    size = family_size(family, params)
    traffic = get_benchmark(f"uniform_c{2 * size}_f2", seed=seed)

    start = time.perf_counter()
    design = family_design(family, traffic, params)
    synthesis_seconds = time.perf_counter() - start

    start = time.perf_counter()
    removal = remove_deadlocks(design)
    removal_seconds = time.perf_counter() - start
    deadlock_free = build_cdg(removal.design).is_acyclic()

    start = time.perf_counter()
    metrics = measure_load_point(
        removal.design,
        SimulationConfig(injection_scale=injection_scale, seed=seed),
        max_cycles=sim_cycles,
        sim_engine="compiled",
    )
    simulation_seconds = time.perf_counter() - start

    return {
        "family": family,
        "params": params,
        "switches": size,
        "links": design.topology.link_count,
        "flows": design.traffic.flow_count,
        "synthesis_seconds": synthesis_seconds,
        "removal_seconds": removal_seconds,
        "removal_added_vcs": removal.added_vc_count,
        "removal_iterations": removal.iterations,
        "deadlock_free_after_removal": deadlock_free,
        "simulation_seconds": simulation_seconds,
        "sim_cycles": sim_cycles,
        "injection_scale": injection_scale,
        "packets_delivered": metrics["packets_delivered"],
        "average_latency": metrics["average_latency"],
        "deadlocked": metrics["deadlocked"],
    }


def run_topology_scale(
    *,
    points: Optional[Dict[str, List[dict]]] = None,
    seed: int = 0,
    sim_cycles: int = 2000,
    injection_scale: float = 0.5,
) -> dict:
    """The whole sweep: every family, every ladder point."""
    points = points if points is not None else FULL_POINTS
    results = [
        _run_point(
            family,
            params,
            seed=seed,
            sim_cycles=sim_cycles,
            injection_scale=injection_scale,
        )
        for family, ladder in sorted(points.items())
        for params in ladder
    ]
    return {
        "seed": seed,
        "sim_cycles": sim_cycles,
        "injection_scale": injection_scale,
        "points": results,
    }


def _persist(data: dict) -> None:
    """Write the numbers to ``BENCH_topology_scale.json`` at the repository root."""
    ROOT_RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _report(data: dict) -> str:
    lines = ["topology-family scaling sweep (removal + compiled simulation)"]
    lines.append(
        f"  {'family':10s} {'switches':>8s} {'removal s':>10s} "
        f"{'sim s':>8s} {'VCs':>4s} {'latency':>8s}"
    )
    for point in data["points"]:
        lines.append(
            f"  {point['family']:10s} {point['switches']:8d} "
            f"{point['removal_seconds']:10.3f} {point['simulation_seconds']:8.3f} "
            f"{point['removal_added_vcs']:4d} {point['average_latency']:8.1f}"
        )
    return "\n".join(lines)


def _check(data: dict) -> List[str]:
    """Hard invariants every sweep point must satisfy."""
    problems = []
    for point in data["points"]:
        label = f"{point['family']} @ {point['switches']} switches"
        if not point["deadlock_free_after_removal"]:
            problems.append(f"{label}: CDG still cyclic after removal")
        if point["deadlocked"]:
            problems.append(f"{label}: protected design deadlocked in simulation")
        if point["packets_delivered"] <= 0:
            problems.append(f"{label}: simulation delivered no packets")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--sim-cycles", type=int, default=None)
    parser.add_argument("--injection-scale", type=float, default=0.5)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI ladders (three modest sizes per family, 400 cycles)",
    )
    args = parser.parse_args(argv)
    points = SMOKE_POINTS if args.smoke else FULL_POINTS
    sim_cycles = args.sim_cycles or (400 if args.smoke else 2000)
    data = run_topology_scale(
        points=points,
        seed=args.seed,
        sim_cycles=sim_cycles,
        injection_scale=args.injection_scale,
    )
    print(_report(data))
    _persist(data)
    print(f"wrote {ROOT_RESULT_PATH}")
    problems = _check(data)
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
