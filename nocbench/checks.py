"""Correctness checks, the record digest and the simulated quality metrics.

Everything here runs after the timed region.  A check failure is charged
to the spec whose record failed it; a failure of the plan as a whole (a
missing layer call, a broken paper claim) is charged to every spec.
"""

from __future__ import annotations

import hashlib
import json
import statistics
from typing import Any, Dict, List, Tuple

from workloads import PROTECTED_POLICIES

#: Load point whose removal-variant latency is the low-load metric.
LOW_LOAD_SCALE = 0.5

#: Variants of a latency grid that must never deadlock.
PROTECTED_VARIANTS = ("removal", "ordering")


def record_digest(results) -> str:
    """SHA-256 of the canonical records, without their wall-clock fields.

    ``removal_runtime_s`` is a host time stored inside the record and
    ``attempts`` counts pool retries; neither is a function of the spec.
    """
    documents = []
    for result in results:
        document = result.to_dict()
        document.pop("removal_runtime_s")
        document.pop("attempts", None)
        documents.append(document)
    payload = json.dumps(documents, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _variants(result) -> Dict[str, Any]:
    return (result.simulation or {}).get("variants", {})


def _removal_design_acyclic(result, cache) -> bool:
    """Reload the spec's removal design from its cost bundle and count cycles."""
    from repro.api.runner import COST_KIND
    from repro.core.cdg import build_cdg
    from repro.core.cycles import count_cycles
    from repro.model.serialization import design_from_dict

    document = cache.get(COST_KIND, result.spec.cost_fingerprint())
    if document is None:
        return False
    design = design_from_dict(document["designs"]["removal"])
    return count_cycles(build_cdg(design), limit=1) == 0


def check_outcome(
    workload: str, outcome, cache, sim_calls: Tuple[int, int]
) -> Tuple[Dict[str, List[str]], List[str]]:
    """Check one plan run.

    Returns ``(spec_failures, plan_failures)``: the first maps a spec
    fingerprint to the checks its record failed, the second lists the
    checks the run failed as a whole.  ``sim_calls`` is
    ``(measure_load_grid calls, measure_load_point calls)``.
    """
    failures: Dict[str, List[str]] = {}
    plan_failures: List[str] = []
    by_fingerprint = outcome.results_by_fingerprint()

    def fail(spec, reason: str) -> None:
        failures.setdefault(spec.fingerprint(), []).append(reason)

    for spec in outcome.plan.all_specs():
        result = by_fingerprint.get(spec.fingerprint())
        if result is None:
            fail(spec, "no record")
            continue
        if workload == "paper-figures":
            if result.removal_extra_vcs > result.ordering_extra_vcs:
                fail(spec, "removal adds more VCs than resource ordering")
            if not _removal_design_acyclic(result, cache):
                fail(spec, "removal design has a cyclic CDG")
            continue
        variants = _variants(result)
        if not variants:
            fail(spec, "no simulation section")
            continue
        for name, metrics in variants.items():
            if metrics["packets_delivered"] > metrics["packets_injected"]:
                fail(spec, f"{name}: more packets delivered than injected")
        if workload == "latency-grid":
            for name in PROTECTED_VARIANTS:
                if variants[name]["deadlocked"]:
                    fail(spec, f"{name} variant deadlocked")
        elif spec.fault_recovery in PROTECTED_POLICIES:
            resilience = variants["removal"].get("resilience", {})
            if resilience.get("post_fault_deadlock_free") is not True:
                fail(spec, f"{spec.fault_recovery}: degraded network not deadlock free")

    grid_calls, point_calls = sim_calls
    if workload == "latency-grid" and (grid_calls, point_calls) != (3, 0):
        plan_failures.append(
            f"batched path did not run: {grid_calls} grid calls, {point_calls} point calls"
        )
    if workload == "paper-figures":
        saving = _power_saving_pct(outcome.results)
        if not saving > 0:
            plan_failures.append(f"removal saves no power over ordering ({saving:.3f}%)")
    return failures, plan_failures


def _power_saving_pct(results) -> float:
    return statistics.fmean(
        100.0 * (r.ordering_power_mw - r.removal_power_mw) / r.ordering_power_mw
        for r in results
    )


def quality_metrics(workload: str, outcome) -> Dict[str, Dict[str, Any]]:
    """The simulated metrics of one run, deterministic for a given seed."""
    results = outcome.results
    if workload == "paper-figures":
        return {
            "removal_extra_vcs": {
                "value": sum(r.removal_extra_vcs for r in results),
                "unit": "count",
            },
            "power_saving_vs_ordering_pct": {
                "value": _power_saving_pct(results),
                "unit": "%",
            },
        }
    report = outcome.render_reports()[0][1]
    if workload == "latency-grid":
        removal = report["variants"]["removal"]
        low_load = removal["average_latency"][
            report["injection_scales"].index(LOW_LOAD_SCALE)
        ]
        return {
            "saturation_scale.removal": {
                "value": removal["saturation_scale"],
                "unit": "load-scale",
            },
            "low_load_latency.removal": {"value": low_load, "unit": "cycles"},
        }
    policies = report["policies"]
    drained = [
        cycles
        for result in results
        for cycles in _variants(result)["removal"].get("resilience", {}).get("recovery_cycles", [])
        if cycles >= 0
    ]
    return {
        "delivered_fraction": {
            "value": statistics.fmean(
                policies[name]["mean_delivered_fraction"] for name in PROTECTED_POLICIES
            ),
            "unit": "ratio",
        },
        "recovery_p50_cycles": {
            "value": statistics.median(drained) if drained else None,
            "unit": "cycles",
            "samples": len(drained),
        },
    }
