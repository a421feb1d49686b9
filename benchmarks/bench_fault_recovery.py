"""Fault injection and online recovery: latency and re-removal cost.

A fault schedule (link/router failures plus repairs) turns a simulation
run into a sequence of recovery episodes: every topology change re-routes
the affected flows, re-runs deadlock removal on the degraded design
through the incremental ``"context"`` engine and swaps the new route
tables into the running network.  This benchmark quantifies what that
costs on the deadlock-free D36_8 design at 35 switches (full
configuration):

* **recovery latency** — cycles until the packets in flight at each fault
  batch drained under the recovered route tables
  (:attr:`~repro.simulation.stats.SimulationStats.recovery_cycles`);
* **re-removal cost** — wall-clock overhead of the faulted run over an
  identical fault-free run, plus the :mod:`repro.perf.counters` counters
  of the timed rounds (route deltas and indexed cost tables of the
  in-flight removals, simulation template builds and reuses);
* **verdict integrity** — the faulted run is executed with
  ``cross_check=True`` (compiled engine re-verified against the legacy
  engine, field-identical stats) and every post-recovery design must be
  deadlock-free (``post_fault_deadlock_free``);
* **template reuse** — the timed rounds compile the design's simulation
  template once and then once per fault batch of each faulted round
  (``sim_template_builds == 1 + rounds × batches_total``): a faulted run
  starts from the design's cached template and continues its numbering
  after every batch;
* **per-policy cost** — the same faulted run repeated under every entry
  of the :data:`repro.api.registry.recovery_policies` registry, each
  round on a fresh copy of the design (so ``protection`` pays its backup
  provisioning every round), timing each policy's repair strategy
  against the fault-free baseline and recording its
  delivery/loss/recovery profile.

Results go to ``BENCH_fault_recovery.json`` at the repository root, and
``--smoke`` results to ``BENCH_fault_recovery.smoke.json`` (ignored by git).
Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_fault_recovery.py           # full
    PYTHONPATH=src python benchmarks/bench_fault_recovery.py --smoke   # CI, <60 s
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.api.registry import recovery_policies
from repro.benchmarks.registry import get_benchmark
from repro.core.removal import remove_deadlocks
from repro.perf.counters import counters
from repro.simulation.events import EventSchedule
from repro.simulation.simulator import SimulationConfig, simulate_design
from repro.synthesis.builder import SynthesisConfig, synthesize_design

from _results import persist


def _protected_design(benchmark: str, switches: int, seed: int):
    traffic = get_benchmark(benchmark, seed=seed)
    design = synthesize_design(traffic, SynthesisConfig(n_switches=switches))
    return remove_deadlocks(design).design


def run_fault_recovery_benchmark(
    *,
    benchmark: str = "D36_8",
    switches: int = 35,
    seed: int = 0,
    rounds: int = 3,
    max_cycles: int = 2000,
    link_failures: int = 2,
    router_failures: int = 1,
) -> dict:
    """Time fault-free vs. faulted runs and collect recovery metrics."""
    design = _protected_design(benchmark, switches, seed)
    schedule = EventSchedule.random(
        design.topology,
        seed=seed,
        link_failures=link_failures,
        router_failures=router_failures,
        start_cycle=max(max_cycles // 20, 10),
        end_cycle=max(max_cycles // 2, 20),
        restore_after=max(max_cycles // 4, 10),
    )
    baseline_config = SimulationConfig(injection_scale=1.0, seed=seed)
    faulted_config = SimulationConfig(
        injection_scale=1.0, seed=seed, fault_schedule=schedule
    )

    baseline_times: List[float] = []
    faulted_times: List[float] = []
    baseline_stats = faulted_stats = None
    counters.reset()
    for _ in range(max(rounds, 1)):
        start = time.perf_counter()
        baseline_stats = simulate_design(
            design, max_cycles=max_cycles, config=baseline_config, engine="compiled"
        )
        baseline_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        faulted_stats = simulate_design(
            design, max_cycles=max_cycles, config=faulted_config, engine="compiled"
        )
        faulted_times.append(time.perf_counter() - start)
    removal_counters = counters.snapshot()

    # One cross-checked faulted run: the compiled engine's verdict under
    # faults re-verified field-by-field against the legacy engine.
    cross_stats = simulate_design(
        design,
        max_cycles=max_cycles,
        config=faulted_config,
        engine="compiled",
        cross_check=True,
    )

    baseline_s, faulted_s = min(baseline_times), min(faulted_times)

    # The same faulted run under every registered recovery policy: what
    # does each repair strategy cost, and what service does it deliver?
    policies = {}
    for policy in recovery_policies.names():
        policy_config = SimulationConfig(
            injection_scale=1.0,
            seed=seed,
            fault_schedule=schedule,
            fault_recovery=policy,
        )
        policy_times: List[float] = []
        policy_stats = None
        for _ in range(max(rounds, 1)):
            # A fresh copy per round: ``protection`` caches its backup
            # provisioning on the design, and each round must pay it.
            fresh = design.copy()
            start = time.perf_counter()
            policy_stats = simulate_design(
                fresh, max_cycles=max_cycles, config=policy_config, engine="compiled"
            )
            policy_times.append(time.perf_counter() - start)
        policy_s = min(policy_times)
        drained = [c for c in policy_stats.recovery_cycles if c >= 0]
        policies[policy] = {
            "seconds": policy_s,
            "overhead_percent": (
                (policy_s / baseline_s - 1.0) * 100.0 if baseline_s > 0 else 0.0
            ),
            "packets_delivered": policy_stats.packets_delivered,
            "packets_lost": policy_stats.packets_lost,
            "flits_lost": policy_stats.flits_lost,
            "flows_rerouted": policy_stats.flows_rerouted,
            "mean_recovery_cycles": (
                sum(drained) / len(drained) if drained else 0.0
            ),
            "batches_never_drained": policy_stats.batches_never_drained,
            "post_fault_deadlock_free": policy_stats.post_fault_deadlock_free,
        }
    recovered = [c for c in faulted_stats.recovery_cycles if c >= 0]
    return {
        "benchmark": benchmark,
        "switches": switches,
        "seed": seed,
        "rounds": max(rounds, 1),
        "max_cycles": max_cycles,
        "schedule": schedule.to_dict(),
        "fault_events_applied": faulted_stats.fault_events_applied,
        "baseline_seconds": baseline_s,
        "faulted_seconds": faulted_s,
        "recovery_overhead_seconds": faulted_s - baseline_s,
        "recovery_overhead_percent": (
            (faulted_s / baseline_s - 1.0) * 100.0 if baseline_s > 0 else 0.0
        ),
        "recovery_cycles": list(faulted_stats.recovery_cycles),
        "mean_recovery_cycles": (
            sum(recovered) / len(recovered) if recovered else 0.0
        ),
        "batches_drained": len(recovered),
        "batches_total": len(faulted_stats.recovery_cycles),
        "packets_lost": faulted_stats.packets_lost,
        "flits_lost": faulted_stats.flits_lost,
        "flows_rerouted": faulted_stats.flows_rerouted,
        "post_fault_deadlock_free": faulted_stats.post_fault_deadlock_free,
        "baseline_packets_delivered": baseline_stats.packets_delivered,
        "faulted_packets_delivered": faulted_stats.packets_delivered,
        "removal_counters": removal_counters,
        "cross_check_identical": True,  # cross_check raises otherwise
        "cross_check_deadlocked": cross_stats.deadlock_detected,
        "policies": policies,
    }


def _report(data: dict) -> str:
    lines = [
        f"fault recovery benchmark — {data['benchmark']} @ "
        f"{data['switches']} switches (seed {data['seed']})",
        f"  schedule: {len(data['schedule']['events'])} event(s), "
        f"{data['fault_events_applied']} applied",
        f"  fault-free: {data['baseline_seconds'] * 1e3:.0f}ms   "
        f"faulted: {data['faulted_seconds'] * 1e3:.0f}ms   "
        f"overhead: {data['recovery_overhead_percent']:.1f}%",
        f"  recovery: {data['batches_drained']}/{data['batches_total']} "
        f"batch(es) drained, mean {data['mean_recovery_cycles']:.0f} cycles",
        f"  lost: {data['packets_lost']} packet(s) / {data['flits_lost']} "
        f"flit(s); {data['flows_rerouted']} flow reroute(s)",
        f"  post-fault CDG acyclic: {data['post_fault_deadlock_free']}   "
        f"cross-check identical: {data['cross_check_identical']}",
    ]
    for policy, entry in sorted(data["policies"].items()):
        lines.append(
            f"  policy {policy:<10}: {entry['seconds'] * 1e3:.0f}ms "
            f"({entry['overhead_percent']:+.1f}%)   "
            f"delivered {entry['packets_delivered']}, "
            f"lost {entry['packets_lost']} pkt / {entry['flits_lost']} flit, "
            f"acyclic: {entry['post_fault_deadlock_free']}"
        )
    return "\n".join(lines)


def _check(data: dict) -> List[str]:
    failures = []
    if data["fault_events_applied"] == 0:
        failures.append("no fault events applied — schedule missed the run window")
    if data["post_fault_deadlock_free"] is not True:
        failures.append("a post-recovery design was not deadlock-free")
    if not data["cross_check_identical"]:
        failures.append("compiled and legacy engines diverged under faults")
    if data["batches_total"] and data["batches_drained"] == 0:
        failures.append("no fault batch ever drained its in-flight packets")
    builds = data["removal_counters"]["sim_template_builds"]
    expected = 1 + data["rounds"] * data["batches_total"]
    if builds != expected:
        failures.append(
            f"{builds} simulation templates compiled, expected {expected}: one for "
            "the design plus one per fault batch of each faulted round"
        )
    for policy, entry in sorted(data["policies"].items()):
        # reroute deliberately skips the removal re-run, so a cyclic
        # post-fault CDG is its documented (and tested) failure mode.
        if policy != "reroute" and entry["post_fault_deadlock_free"] is False:
            failures.append(
                f"policy {policy!r} left a post-recovery design deadlocked"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--benchmark", default="D36_8")
    parser.add_argument("--switches", type=int, default=35)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="small CI configuration (14 switches, short runs, 1 round)",
    )
    args = parser.parse_args(argv)
    if args.smoke:
        data = run_fault_recovery_benchmark(
            benchmark=args.benchmark,
            switches=14,
            seed=args.seed,
            rounds=1,
            max_cycles=600,
            link_failures=2,
            router_failures=0,
        )
    else:
        data = run_fault_recovery_benchmark(
            benchmark=args.benchmark,
            switches=args.switches,
            seed=args.seed,
            rounds=args.rounds,
        )
    print(_report(data))
    print(f"wrote {persist('fault_recovery', data, smoke=args.smoke)}")
    failures = _check(data)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
