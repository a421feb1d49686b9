"""Wormhole simulation: compiled array engine vs. legacy object engine.

The compiled engine (:mod:`repro.perf.sim_engine`) must be measurably
faster than the seed object-per-flit simulator while producing
**field-identical** :class:`~repro.simulation.stats.SimulationStats` — the
simulation is the runtime evidence behind the paper's deadlock-freedom
claims, so the fast engine earning its keep means nothing if its verdicts
could drift.  This benchmark:

* times both engines end-to-end (injection + drain) on the deadlock-free
  D36_8 design at 35 switches and on an 8x8 XY mesh, asserting the
  compiled engine's speedup at the D36_8 point is at least ``37x`` (full
  configuration; ``26x`` at 20 switches in ``--smoke``).  Both floors sit
  above what the compiled engine reaches without its dormant links
  (26-35x full, 21-25x smoke over repeated runs, against 38-51x and
  28-42x with them), and its request-indexed switch allocation sits
  further below, so losing either fails here even though every
  statistic would still match;
* asserts the stats of every timed pair are identical field by field;
* cross-checks (``simulate_design(..., cross_check=True)`` — the compiled
  run re-executed on the legacy engine and compared stat-by-stat) on all
  six SoC benchmarks at 14 switches **and** under all four synthetic
  traffic scenarios (uniform, hotspot, transpose, bursty) plus the paper's
  ``flows`` traffic;
* asserts the per-design :class:`~repro.perf.sim_engine.SimulationTemplate`
  is compiled once and *reused* across a design's runs
  (``counters.sim_template_reuses``), so a regression that recompiles per
  run fails loudly here.

Results go to ``BENCH_simulation.json`` at the repository root, and
``--smoke`` results to ``BENCH_simulation.smoke.json`` (ignored by git).
Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_simulation.py           # full
    PYTHONPATH=src python benchmarks/bench_simulation.py --smoke   # CI, <60 s
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Dict, List, Optional

from repro.benchmarks.registry import get_benchmark, list_benchmarks
from repro.benchmarks.synthetic import default_mesh_traffic
from repro.core.removal import remove_deadlocks
from repro.perf.counters import counters
from repro.simulation.simulator import (
    SimulationConfig,
    simulate_design,
    stats_divergences,
)
from repro.simulation.stats import SimulationStats
from repro.synthesis.builder import SynthesisConfig, synthesize_design
from repro.synthesis.families import family_design

from _results import persist

#: Acceptance threshold at the headline point (D36_8 @ 35 switches).
FULL_SPEEDUP_THRESHOLD = 37.0
#: Threshold for the CI smoke configuration (D36_8 @ 20 switches, short
#: runs, so a lower bar than the full one).
SMOKE_SPEEDUP_THRESHOLD = 26.0
#: Compiled runs timed per legacy run (see :func:`_time_point`).
COMPILED_RUNS_PER_ROUND = 3
#: Switch count of the six-benchmark cross-check (the Figure 10 setting).
CROSS_CHECK_SWITCHES = 14
#: Every registered scenario the cross-check sweep exercises.
SCENARIOS = ("flows", "uniform", "hotspot", "transpose", "bursty")


def _stats_identical(a: SimulationStats, b: SimulationStats) -> bool:
    return not stats_divergences(a, b)


def _protected_design(benchmark: str, switches: int, seed: int):
    traffic = get_benchmark(benchmark, seed=seed)
    design = synthesize_design(traffic, SynthesisConfig(n_switches=switches))
    return remove_deadlocks(design).design


def _time_point(design, *, max_cycles: int, injection_scale: float, seed: int, rounds: int):
    """Min-of-rounds wall time for both engines plus stats equality.

    Each round times one legacy run and ``COMPILED_RUNS_PER_ROUND``
    compiled runs, which are far cheaper: the host's speed drifts over
    seconds, and a minimum is only as good as its chance to land in a fast
    phase.
    """
    config = SimulationConfig(injection_scale=injection_scale, seed=seed)
    legacy_times: List[float] = []
    compiled_times: List[float] = []
    legacy_stats = compiled_stats = None
    for _ in range(max(rounds, 1)):
        start = time.perf_counter()
        legacy_stats = simulate_design(
            design, max_cycles=max_cycles, config=config, engine="legacy"
        )
        legacy_times.append(time.perf_counter() - start)
        for _ in range(COMPILED_RUNS_PER_ROUND):
            start = time.perf_counter()
            compiled_stats = simulate_design(
                design, max_cycles=max_cycles, config=config, engine="compiled"
            )
            compiled_times.append(time.perf_counter() - start)
    legacy_s, compiled_s = min(legacy_times), min(compiled_times)
    return {
        "design": design.name,
        "max_cycles": max_cycles,
        "cycles_run": compiled_stats.cycles_run,
        "injection_scale": injection_scale,
        "packets_delivered": compiled_stats.packets_delivered,
        "average_latency": round(compiled_stats.average_latency, 2),
        "legacy_seconds": legacy_s,
        "compiled_seconds": compiled_s,
        "speedup": legacy_s / compiled_s if compiled_s > 0 else float("inf"),
        "stats_identical": _stats_identical(legacy_stats, compiled_stats),
    }


def run_simulation_benchmark(
    *,
    benchmark: str = "D36_8",
    switches: int = 35,
    seed: int = 0,
    rounds: int = 5,
    max_cycles: int = 2000,
    cross_check_benchmarks: Optional[List[str]] = None,
    cross_check_cycles: int = 600,
) -> dict:
    """Time compiled vs. legacy and cross-check benchmarks x scenarios."""
    counters.reset()
    points = []

    protected = _protected_design(benchmark, switches, seed)
    points.append(
        _time_point(
            protected,
            max_cycles=max_cycles,
            injection_scale=1.0,
            seed=seed,
            rounds=rounds,
        )
    )
    mesh = family_design(
        "mesh",
        default_mesh_traffic(8, 8),
        {"rows": 8, "cols": 8, "routing": "xy"},
        name="mesh8x8",
    )
    points.append(
        _time_point(
            mesh,
            max_cycles=max_cycles,
            injection_scale=1.0,
            seed=seed,
            rounds=rounds,
        )
    )

    names = (
        cross_check_benchmarks
        if cross_check_benchmarks is not None
        else list_benchmarks()
    )
    cross_checks = []
    for name in names:
        design = _protected_design(name, CROSS_CHECK_SWITCHES, seed)
        for scenario in SCENARIOS:
            config = SimulationConfig(
                injection_scale=2.0, seed=seed, traffic_scenario=scenario
            )
            # cross_check=True re-runs the legacy engine on an identical
            # fresh configuration and raises on any stats divergence.
            stats = simulate_design(
                design,
                max_cycles=cross_check_cycles,
                config=config,
                engine="compiled",
                cross_check=True,
            )
            cross_checks.append(
                {
                    "benchmark": name,
                    "scenario": scenario,
                    "packets_delivered": stats.packets_delivered,
                    "deadlocked": stats.deadlock_detected,
                    "identical": True,  # cross_check raises otherwise
                }
            )

    # The five scenario cross-checks per design (and every timed round past
    # the first) must be served by the design's cached simulation template.
    template_reuse = counters.snapshot()
    return {
        "benchmark": benchmark,
        "switches": switches,
        "seed": seed,
        "rounds": max(rounds, 1),
        "points": points,
        "cross_checks": cross_checks,
        "headline_speedup": points[0]["speedup"],
        "all_stats_identical": all(p["stats_identical"] for p in points),
        "template_reuse": template_reuse,
    }


def _report(data: dict) -> str:
    lines = [
        f"simulation engine benchmark — {data['benchmark']} (seed {data['seed']})",
        f"{'design':>22} {'cycles':>7} {'legacy':>10} {'compiled':>10} "
        f"{'speedup':>8} {'identical':>9}",
    ]
    for point in data["points"]:
        lines.append(
            f"{point['design']:>22} {point['cycles_run']:>7} "
            f"{point['legacy_seconds'] * 1e3:>8.0f}ms "
            f"{point['compiled_seconds'] * 1e3:>8.0f}ms "
            f"{point['speedup']:>7.2f}x {str(point['stats_identical']):>9}"
        )
    benchmarks = sorted({c["benchmark"] for c in data["cross_checks"]})
    scenarios = sorted({c["scenario"] for c in data["cross_checks"]})
    lines.append(
        f"  cross-check: {len(benchmarks)} benchmark(s) @ {CROSS_CHECK_SWITCHES} "
        f"switches x {len(scenarios)} scenario(s) — all stats identical"
    )
    reuse = data["template_reuse"]
    lines.append(
        f"  sim templates: {reuse['sim_template_builds']} compiled, "
        f"{reuse['sim_template_reuses']} reused"
    )
    return "\n".join(lines)


def _check(data: dict, threshold: float) -> List[str]:
    failures = []
    if not data["all_stats_identical"]:
        failures.append("engines disagreed on a timed run's statistics")
    if data["headline_speedup"] < threshold:
        failures.append(
            f"speedup {data['headline_speedup']:.2f}x below {threshold}x at "
            f"the headline point"
        )
    reuse = data["template_reuse"]
    if reuse["sim_template_reuses"] <= 0:
        failures.append(
            "repeated simulations of one design recompiled the simulation "
            "template instead of reusing the one cached on the design"
        )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="D36_8")
    parser.add_argument("--switches", type=int, default=35)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI configuration (20 switches, short runs, 2-benchmark "
        "cross-check, lower threshold)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        data = run_simulation_benchmark(
            benchmark=args.benchmark,
            switches=20,
            seed=args.seed,
            rounds=args.rounds,
            max_cycles=600,
            cross_check_benchmarks=["D26_media", "D36_8"],
            cross_check_cycles=250,
        )
        threshold = SMOKE_SPEEDUP_THRESHOLD
    else:
        data = run_simulation_benchmark(
            benchmark=args.benchmark,
            switches=args.switches,
            seed=args.seed,
            rounds=args.rounds,
        )
        threshold = FULL_SPEEDUP_THRESHOLD
    print(_report(data))
    print(f"wrote {persist('simulation', data, smoke=args.smoke)}")
    failures = _check(data, threshold)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
