"""Removal scaling: the context engine against the rebuild oracle.

The ``"context"`` engine (the default) runs Algorithm 1 on one
:class:`~repro.perf.design_context.DesignContext` per run: a CDG index
updated from each break's route delta, the SCC-pruned depth-limited cycle
search and one-pass int-indexed cost tables.  ``"rebuild"`` keeps the seed
loop — full ``build_cdg`` and full BFS sweep per break — as the oracle.

This benchmark times both engines on D36_8 at 20/28/35 switches and
asserts:

* both engines produce an *identical* break-action sequence at every point;
* one smallest-cycle query on the initial CDG returns the same cycle from
  the seed search and the indexed search;
* on every SoC benchmark a cross-checked context run yields identical
  actions and byte-identical route sets to the rebuild oracle;
* the speedup at the largest point is at least ``8x`` (measured: about
  11x at 20 switches and 24x at 35 on a 2-CPU x86_64 machine);
* the design context actually reused cached state (reuse counters > 0), so
  a change that silently falls back to rebuilding fails here and not in a
  profiler three PRs later.

The initial elementary-cycle count (an optional diagnostic) is disabled so
the comparison measures the algorithm, not networkx's Johnson enumeration.

Results go to ``benchmarks/results/removal_scaling.json`` and
``BENCH_removal_scaling.json`` at the repository root.  Runnable
standalone::

    PYTHONPATH=src python benchmarks/bench_removal_scaling.py           # full
    PYTHONPATH=src python benchmarks/bench_removal_scaling.py --smoke   # CI, <60 s
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

REPO_ROOT = Path(__file__).resolve().parent.parent
ROOT_RESULT_PATH = REPO_ROOT / "BENCH_removal_scaling.json"

from repro.benchmarks.registry import get_benchmark, list_benchmarks
from repro.core.cdg import build_cdg
from repro.core.cycles import find_smallest_cycle
from repro.core.removal import remove_deadlocks
from repro.perf.cdg_index import CDGIndex
from repro.perf.cycle_search import IncrementalCycleSearch
from repro.perf.design_context import counters
from repro.routing.shortest_path import compute_routes
from repro.synthesis.builder import SynthesisConfig, synthesize_design

#: Acceptance threshold at the largest full-configuration point.
FULL_SPEEDUP_THRESHOLD = 8.0
#: Looser threshold for the CI smoke configuration (small topology, one
#: round — process noise on shared runners dominates small absolute times).
SMOKE_SPEEDUP_THRESHOLD = 3.0
#: Switch count of the six-benchmark cross-check (the Figure 10 setting).
CROSS_CHECK_SWITCHES = 14


def _action_signature(result) -> List[tuple]:
    """Comparable summary of a removal run's break sequence."""
    return [
        (
            action.iteration,
            action.direction,
            tuple(c.name for c in action.cycle),
            action.broken_edge[0].name,
            action.broken_edge[1].name,
            action.cost,
            action.flows_rerouted,
            tuple(sorted((old.name, new.name) for old, new in action.channels_added.items())),
        )
        for action in result.actions
    ]


def _route_signature(design) -> Dict[str, tuple]:
    """Byte-comparable route set of a design."""
    return {
        name: tuple(channel.name for channel in design.routes.route(name))
        for name in design.routes.flow_names
    }


def _timed(function, *args, **kwargs):
    """``(result, seconds)`` of one call."""
    start = time.perf_counter()
    result = function(*args, **kwargs)
    return result, time.perf_counter() - start


def _smallest_cycle_point(design) -> dict:
    """One smallest-cycle query on the initial CDG: seed vs. indexed search."""
    cdg = build_cdg(design)
    seed_cycle, seed_s = _timed(find_smallest_cycle, cdg)
    index = CDGIndex.from_routes(design.routes)
    indexed_cycle, indexed_s = _timed(IncrementalCycleSearch(index).find_smallest)
    return {
        "seed_seconds": seed_s,
        "indexed_seconds": indexed_s,
        "identical": seed_cycle == indexed_cycle,
    }


def run_removal_scaling(
    *,
    benchmark: str = "D36_8",
    switch_counts: Sequence[int] = (20, 28, 35),
    seed: int = 0,
    rounds: int = 3,
) -> dict:
    """Time the rebuild oracle vs. the context engine and verify equality."""
    traffic = get_benchmark(benchmark, seed=seed)
    points = []
    for count in switch_counts:
        design = synthesize_design(
            traffic, SynthesisConfig(n_switches=count, seed=seed)
        )
        # Routing-state reuse probe: re-routing the synthesized design must
        # be served by the context's cached switch graph (the ROADMAP item
        # "reuse one SwitchGraph across repeated compute_routes calls").
        counters.reset()
        compute_routes(design)
        routing_reuse = counters.snapshot()

        smallest_cycle = _smallest_cycle_point(design)
        rebuild_times: List[float] = []
        context_times: List[float] = []
        counters.reset()
        for _ in range(max(rounds, 1)):
            rebuild_result, elapsed = _timed(
                remove_deadlocks, design, engine="rebuild", count_initial_cycles=False
            )
            rebuild_times.append(elapsed)
            context_result, elapsed = _timed(
                remove_deadlocks, design, engine="context", count_initial_cycles=False
            )
            context_times.append(elapsed)
        reuse = counters.snapshot()
        rebuild_s = min(rebuild_times)
        context_s = min(context_times)
        points.append(
            {
                "switch_count": count,
                "iterations": context_result.iterations,
                "added_vcs": context_result.added_vc_count,
                "rebuild_seconds": rebuild_s,
                "context_seconds": context_s,
                "speedup": rebuild_s / context_s if context_s > 0 else float("inf"),
                "actions_identical": _action_signature(rebuild_result)
                == _action_signature(context_result),
                "smallest_cycle": smallest_cycle,
                "routing_reuse": routing_reuse,
                "context_reuse": reuse,
            }
        )

    cross_checks = []
    for name in list_benchmarks():
        design = synthesize_design(
            get_benchmark(name, seed=seed),
            SynthesisConfig(n_switches=CROSS_CHECK_SWITCHES, seed=seed),
        )
        seed_result = remove_deadlocks(design, engine="rebuild")
        # cross_check=True re-derives every cost table with the reference
        # builder and verifies the CDG index against a rebuild per break.
        context_result = remove_deadlocks(design, engine="context", cross_check=True)
        cross_checks.append(
            {
                "benchmark": name,
                "actions_identical": _action_signature(seed_result)
                == _action_signature(context_result),
                "routes_identical": _route_signature(seed_result.design)
                == _route_signature(context_result.design),
            }
        )

    largest = points[-1]
    return {
        "benchmark": benchmark,
        "seed": seed,
        "rounds": max(rounds, 1),
        "switch_counts": list(switch_counts),
        "points": points,
        "cross_checks": cross_checks,
        "largest_point_speedup": largest["speedup"],
        "all_actions_identical": all(p["actions_identical"] for p in points)
        and all(c["actions_identical"] for c in cross_checks),
        "all_routes_identical": all(c["routes_identical"] for c in cross_checks),
        "all_smallest_cycles_identical": all(
            p["smallest_cycle"]["identical"] for p in points
        ),
    }


def _persist(data: dict) -> None:
    """Write the numbers to the harness results dir and the repo root."""
    results_dir = Path(__file__).parent / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(data, indent=2, sort_keys=True)
    (results_dir / "removal_scaling.json").write_text(payload)
    ROOT_RESULT_PATH.write_text(payload + "\n")


def _report(data: dict) -> str:
    lines = [
        f"removal scaling benchmark — {data['benchmark']} (seed {data['seed']})",
        f"{'switches':>9} {'rebuild':>10} {'context':>10} {'speedup':>8} "
        f"{'iters':>6} {'identical':>9} {'smallest cycle (seed -> indexed)':>34}",
    ]
    for point in data["points"]:
        cycle = point["smallest_cycle"]
        lines.append(
            f"{point['switch_count']:>9} {point['rebuild_seconds'] * 1e3:>8.1f}ms "
            f"{point['context_seconds'] * 1e3:>8.1f}ms {point['speedup']:>7.2f}x "
            f"{point['iterations']:>6} {str(point['actions_identical']):>9} "
            f"{cycle['seed_seconds'] * 1e3:>16.1f}ms -> "
            f"{cycle['indexed_seconds'] * 1e3:.1f}ms"
        )
    ok = all(c["actions_identical"] and c["routes_identical"] for c in data["cross_checks"])
    lines.append(
        f"  cross-check on {len(data['cross_checks'])} benchmarks @ "
        f"{CROSS_CHECK_SWITCHES} switches: "
        + ("identical actions + byte-identical routes" if ok else "FAILED")
    )
    largest = data["points"][-1]
    lines.append(
        "  context reuse at largest point: graph reuses "
        f"{largest['routing_reuse']['graph_reuses']} (re-route probe), "
        f"route deltas {largest['context_reuse']['route_deltas']}, "
        f"indexed cost tables {largest['context_reuse']['cost_tables_indexed']}, "
        f"forked contexts {largest['context_reuse']['contexts_forked']}"
    )
    return "\n".join(lines)


def _check(data: dict, threshold: float) -> List[str]:
    """Acceptance checks; returns a list of failure messages."""
    failures = []
    if not data["all_actions_identical"]:
        failures.append("engines disagreed on a break sequence")
    if not data["all_routes_identical"]:
        failures.append("cross-checked route sets differ from the rebuild oracle")
    if not data["all_smallest_cycles_identical"]:
        failures.append("indexed smallest-cycle search diverged from the seed search")
    if data["largest_point_speedup"] < threshold:
        failures.append(
            f"speedup {data['largest_point_speedup']:.2f}x below {threshold}x "
            f"at the largest point"
        )
    largest = data["points"][-1]
    routing_reuse = largest["routing_reuse"]
    context_reuse = largest["context_reuse"]
    if routing_reuse["graph_reuses"] <= 0:
        failures.append(
            "re-routing the design rebuilt the switch graph instead of "
            "reusing the context's cached one"
        )
    if context_reuse["route_deltas"] <= 0 or context_reuse["cost_tables_indexed"] <= 0:
        failures.append(
            "the context removal engine did not exercise its indexed state "
            f"(route deltas {context_reuse['route_deltas']}, indexed cost "
            f"tables {context_reuse['cost_tables_indexed']})"
        )
    if context_reuse["contexts_forked"] <= 0:
        failures.append(
            "removal runs rebuilt the CDG index on every design.copy() "
            "instead of forking the source context's index"
        )
    return failures


def test_removal_scaling_speedup(benchmark, context_counters):
    """Harness entry: full configuration, asserts the 8x acceptance bar.

    ``context_counters`` (reset by the fixture) backs the reuse checks in
    :func:`_check`: a regression in the design-context cache hits fails the
    benchmark explicitly rather than surfacing as a slower number.
    """
    data = benchmark.pedantic(run_removal_scaling, rounds=1, iterations=1)
    print("\n" + _report(data))
    _persist(data)
    failures = _check(data, FULL_SPEEDUP_THRESHOLD)
    assert not failures, "; ".join(failures)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="D36_8")
    parser.add_argument("--switches", type=int, nargs="+", default=[20, 28, 35])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI configuration (20 switches, 1 round, looser threshold)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        data = run_removal_scaling(
            benchmark=args.benchmark, switch_counts=(20,), seed=args.seed, rounds=1
        )
        threshold = SMOKE_SPEEDUP_THRESHOLD
    else:
        data = run_removal_scaling(
            benchmark=args.benchmark,
            switch_counts=tuple(args.switches),
            seed=args.seed,
            rounds=args.rounds,
        )
        threshold = FULL_SPEEDUP_THRESHOLD
    print(_report(data))
    _persist(data)
    print(f"wrote {ROOT_RESULT_PATH}")
    failures = _check(data, threshold)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
