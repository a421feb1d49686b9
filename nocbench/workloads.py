"""The benchmark's workloads: one experiment plan each, built from a seed.

Every workload is a closed loop with one client: one plan runs serially
(``jobs=1``) against a fresh, empty artifact cache, and the next run starts
only when the previous one has finished.  The workload seed is the only
input; it is threaded into the plan's seeds, so the same seed always yields
the same plan and therefore the same records.

The sizes keep one repetition to a few seconds on a 2-CPU host, so that a
run of the benchmark holds several repetitions: simulations are shorter
than the paper-scale 3000 injection cycles.

``size="tiny"`` shrinks each workload to a few-second configuration that
exercises the same layers; the self-test uses it.
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Injection scales of the ``latency-grid`` workload: sixteen load points
#: from far below to far beyond saturation.  0.5 is the low-load point the
#: ``low_load_latency.removal`` metric reads.
LATENCY_SCALES: List[float] = [
    0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0,
    1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5, 4.0,
]

#: Recovery policies of the ``fault-availability`` workload, in report order.
AVAILABILITY_POLICIES: List[str] = ["removal", "reroute", "idle", "protection"]

#: Policies that must keep the degraded network deadlock free.  ``reroute``
#: re-routes without re-running removal, so it is expected to deadlock.
PROTECTED_POLICIES: List[str] = ["removal", "idle", "protection"]

#: Fault draws per policy in the ``fault-availability`` workload.
FAULT_SEEDS_PER_POLICY = 3


def paper_figures(seed: int, size: str = "full") -> Dict[str, Any]:
    """Cost-only plan of the paper's own evaluation (figures 8, 9, 10 and §5).

    Why: it is the paper's pipeline and nothing else.  Synthesis dominates
    (core partitioning above all), removal, ordering and estimation follow,
    and nothing simulates, so a simulator change must leave it flat.  The
    report list matches ``plans/paper_figures.json`` (19 distinct specs
    after deduplication); it is inlined so that the benchmark stays fixed
    when that plan file changes.
    """
    if size == "tiny":
        reports: List[Any] = [
            {"type": "figure8", "switch_counts": [5, 8], "seed": seed},
            {"type": "figure10", "benchmarks": ["D26_media", "D36_8"],
             "switch_count": 14, "seed": seed},
        ]
    else:
        reports = [
            {"type": name, "seed": seed}
            for name in ("figure8", "figure9", "figure10", "area", "overhead")
        ]
    return {"format_version": 1, "name": "paper-figures", "reports": reports}


def latency_grid(seed: int, size: str = "full") -> Dict[str, Any]:
    """Sixteen-point load-latency grid of D36_8 at 35 switches, batched.

    Why: it is the headline simulation number.  One cost bundle feeds three
    array programs (one per design variant), so the batched engine takes
    nearly all of the time and synthesis and removal run once: a
    cost-pipeline change must leave it flat.  ``sim_engine`` is set in the
    report entry on purpose: plan ``defaults`` do not reach report specs,
    and without it the grid would silently run per spec on ``compiled``.
    The seed picks the D36_8 traffic instance and the injection draws.
    """
    entry: Dict[str, Any] = {
        "type": "latency",
        "benchmark": "D36_8",
        "switch_count": 35,
        "injection_scales": list(LATENCY_SCALES),
        "sim_cycles": 500,
        "sim_engine": "batched",
        "seed": seed,
    }
    if size == "tiny":
        entry.update(switch_count=14, injection_scales=[0.25, 0.5, 2.0], sim_cycles=300)
    return {"format_version": 1, "name": "latency-grid", "reports": [entry]}


def fault_availability(seed: int, size: str = "full") -> Dict[str, Any]:
    """Multi-seed availability of D36_8 at 14 switches under burst faults.

    Why: it drives the same layers another way.  Fault specs never batch,
    so every variant runs alone on the compiled engine, and the recovery
    controller calls deadlock removal online, in place and without the
    initial cycle count: many small removal calls instead of one large
    one.  A gain for the batched engine or for one-shot removal that costs
    the compiled engine or online removal shows up here.

    As in the ``availability`` report's own design, the design and traffic
    seed stays fixed and the workload seed picks the fault draws, so the
    draws are the only variance between seeds.
    """
    entry: Dict[str, Any] = {
        "type": "availability",
        "benchmark": "D36_8",
        "switch_count": 14,
        "injection_scale": 1.0,
        "sim_cycles": 300,
        "fault_model": "spatial_burst",
        "fault_params": {
            "radius": 1,
            "start_cycle": 50,
            "end_cycle": 150,
            "restore_after": 100,
        },
        "recovery_policies": list(AVAILABILITY_POLICIES),
        "seeds": [
            seed * FAULT_SEEDS_PER_POLICY + offset
            for offset in range(FAULT_SEEDS_PER_POLICY)
        ],
        "seed": 0,
    }
    if size == "tiny":
        entry.update(switch_count=8, seeds=[seed])
    return {"format_version": 1, "name": "fault-availability", "reports": [entry]}


#: Workload name -> plan builder ``(seed, size) -> plan document``.
WORKLOADS = {
    "paper-figures": paper_figures,
    "latency-grid": latency_grid,
    "fault-availability": fault_availability,
}
