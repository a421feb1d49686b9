"""Before/after microbenchmark of the indexed routing engine.

The seed route computation (``engine="legacy"``) carries full path tuples in
its Dijkstra heap and prunes only strictly-worse entries, so every equal-cost
path is expanded — exponential tie blowup on the regular grids the ``mesh``
synthesis backend generates (an ``n x n`` mesh has ``C(dx+dy, dx)`` equal-hop
paths per flow).  The indexed engine (``engine="indexed"``, the default since
this change) keeps one label per switch over an int-relabelled graph and
reweights congestion incrementally, which is polynomial everywhere.

This benchmark pits the two engines against each other on:

* an **8x8 mesh** carrying the D36_8 benchmark traffic (the configuration
  the ``mesh`` backend produces for ``n_switches=64``) — the acceptance
  gate: the indexed engine must be at least ``5x`` faster and produce an
  identical route set;
* a **dense custom topology** (D36_8 at 18 switches with a doubled
  shortcut-link budget) — the application-specific side of the story;
* **all six SoC benchmarks** through the full synthesis pipeline — the
  serialized route sets of both engines must be *byte-identical*.

Results go to ``BENCH_routing.json`` at the repository root.  Run from
the repository root::

    PYTHONPATH=src python benchmarks/bench_routing.py           # full
    PYTHONPATH=src python benchmarks/bench_routing.py --smoke   # CI, <60 s
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

REPO_ROOT = Path(__file__).resolve().parent.parent
ROOT_RESULT_PATH = REPO_ROOT / "BENCH_routing.json"

from repro.api.registry import topology_families
from repro.benchmarks.registry import BENCHMARK_NAMES, get_benchmark
from repro.model.design import NocDesign
from repro.model.traffic import CommunicationGraph
from repro.routing.shortest_path import ENGINE_INDEXED, ENGINE_LEGACY, compute_routes
from repro.synthesis.builder import (
    SynthesisConfig,
    build_switch_network,
    synthesize_design,
)
from repro.synthesis.partition import partition_cores

#: Acceptance threshold for the 8x8 mesh configuration (full benchmark).
FULL_SPEEDUP_THRESHOLD = 5.0
#: Looser threshold for the CI smoke configuration (6x6 mesh, one round —
#: absolute times are milliseconds and runner noise dominates).
SMOKE_SPEEDUP_THRESHOLD = 2.0


def routes_document(design: NocDesign) -> str:
    """Canonical JSON of a design's route set (for byte-identity checks)."""
    payload: Dict[str, List[str]] = {
        name: [channel.name for channel in route]
        for name, route in design.routes.items()
    }
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _mesh_case(side: int, benchmark: str, seed: int) -> NocDesign:
    """The design the ``mesh`` backend would build for ``side**2`` switches,
    *unrouted* — the benchmark times route computation in isolation."""
    traffic = get_benchmark(benchmark, seed=seed)
    mesh = topology_families.get("mesh").build({"rows": side, "cols": side})
    topology = mesh.topology
    topology.name = f"{benchmark}_{side}x{side}mesh"
    return NocDesign(
        name=topology.name,
        topology=topology,
        traffic=traffic,
        core_map=mesh.attach_cores(traffic),
    )


def _custom_case(benchmark: str, switch_count: int, seed: int) -> NocDesign:
    """A dense application-specific switch network, unrouted."""
    traffic = get_benchmark(benchmark, seed=seed)
    config = SynthesisConfig(n_switches=switch_count, extra_link_fraction=1.0, max_switch_degree=5)
    core_map = partition_cores(traffic, switch_count, balance_slack=config.balance_slack)
    name = f"{benchmark}_{switch_count}sw_dense"
    topology = build_switch_network(traffic, core_map, config, name=name)
    return NocDesign(name=name, topology=topology, traffic=traffic, core_map=core_map)


def _time_engines(design: NocDesign, rounds: int) -> Dict[str, object]:
    """Route ``design`` with both engines, timed; verify identical routes."""
    legacy_times: List[float] = []
    indexed_times: List[float] = []
    legacy_doc = indexed_doc = ""
    for _ in range(max(rounds, 1)):
        legacy = design.copy()
        start = time.perf_counter()
        compute_routes(legacy, engine=ENGINE_LEGACY)
        legacy_times.append(time.perf_counter() - start)
        legacy_doc = routes_document(legacy)

        indexed = design.copy()
        start = time.perf_counter()
        compute_routes(indexed, engine=ENGINE_INDEXED)
        indexed_times.append(time.perf_counter() - start)
        indexed_doc = routes_document(indexed)

    legacy_s = min(legacy_times)
    indexed_s = min(indexed_times)
    return {
        "design": design.name,
        "switches": design.topology.switch_count,
        "links": design.topology.link_count,
        "flows": design.traffic.flow_count,
        "legacy_seconds": legacy_s,
        "indexed_seconds": indexed_s,
        "speedup": legacy_s / indexed_s if indexed_s > 0 else float("inf"),
        "routes_identical": legacy_doc == indexed_doc,
    }


def _benchmark_equivalence(switch_count: int, seed: int) -> Dict[str, Dict[str, object]]:
    """Full-pipeline route-set byte-identity over all six SoC benchmarks."""
    results: Dict[str, Dict[str, object]] = {}
    for name in BENCHMARK_NAMES:
        traffic = get_benchmark(name, seed=seed)
        start = time.perf_counter()
        indexed = synthesize_design(traffic, SynthesisConfig(n_switches=switch_count))
        indexed_s = time.perf_counter() - start
        start = time.perf_counter()
        legacy = synthesize_design(
            traffic, SynthesisConfig(n_switches=switch_count, routing_engine=ENGINE_LEGACY)
        )
        legacy_s = time.perf_counter() - start
        results[name] = {
            "flows": indexed.traffic.flow_count,
            "routes_byte_identical": routes_document(indexed) == routes_document(legacy),
            "indexed_pipeline_seconds": indexed_s,
            "legacy_pipeline_seconds": legacy_s,
        }
    return results


def run_routing_benchmark(
    *,
    mesh_side: int = 8,
    benchmark: str = "D36_8",
    custom_switches: int = 18,
    equivalence_switches: int = 14,
    seed: int = 0,
    rounds: int = 3,
) -> dict:
    """Time legacy vs. indexed routing and verify identical route sets."""
    mesh = _time_engines(_mesh_case(mesh_side, benchmark, seed), rounds)
    custom = _time_engines(_custom_case(benchmark, custom_switches, seed), rounds)
    equivalence = _benchmark_equivalence(equivalence_switches, seed)
    return {
        "seed": seed,
        "rounds": max(rounds, 1),
        "mesh": mesh,
        "custom": custom,
        "benchmark_equivalence": equivalence,
        "all_routes_identical": (
            bool(mesh["routes_identical"])
            and bool(custom["routes_identical"])
            and all(case["routes_byte_identical"] for case in equivalence.values())
        ),
    }


def _persist(data: dict) -> None:
    """Write the numbers to ``BENCH_routing.json`` at the repository root."""
    ROOT_RESULT_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _case_line(label: str, case: Dict[str, object]) -> str:
    return (
        f"  {label:<22}: {case['legacy_seconds'] * 1e3:8.1f} ms -> "
        f"{case['indexed_seconds'] * 1e3:7.1f} ms  "
        f"({case['speedup']:.1f}x, identical={case['routes_identical']})"
    )


def _report(data: dict) -> str:
    lines = [
        f"routing engine benchmark — seed {data['seed']}, {data['rounds']} round(s)",
        _case_line(f"mesh ({data['mesh']['design']})", data["mesh"]),
        _case_line(f"custom ({data['custom']['design']})", data["custom"]),
        "  six-benchmark route-set byte identity:",
    ]
    for name, case in data["benchmark_equivalence"].items():
        lines.append(
            f"    {name:<10}: identical={case['routes_byte_identical']} "
            f"({case['flows']} flows)"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="D36_8")
    parser.add_argument("--mesh-side", type=int, default=8)
    parser.add_argument("--custom-switches", type=int, default=18)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI configuration (6x6 mesh, 1 round, looser threshold)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        data = run_routing_benchmark(
            mesh_side=6,
            benchmark=args.benchmark,
            custom_switches=12,
            equivalence_switches=10,
            seed=args.seed,
            rounds=1,
        )
        threshold = SMOKE_SPEEDUP_THRESHOLD
    else:
        data = run_routing_benchmark(
            mesh_side=args.mesh_side,
            benchmark=args.benchmark,
            custom_switches=args.custom_switches,
            seed=args.seed,
            rounds=args.rounds,
        )
        threshold = FULL_SPEEDUP_THRESHOLD
    print(_report(data))
    _persist(data)
    print(f"wrote {ROOT_RESULT_PATH}")
    if not data["all_routes_identical"]:
        print("FAIL: routing engines disagreed on a route set", file=sys.stderr)
        return 1
    if data["mesh"]["speedup"] < threshold:
        print(
            f"FAIL: mesh speedup {data['mesh']['speedup']:.2f}x < {threshold}x",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
