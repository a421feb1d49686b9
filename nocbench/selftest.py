"""Fast self-test of the benchmark on tiny configurations of every workload.

It checks that the output carries exactly the metric names declared in
``BENCHMARK.json`` and that the correctness checks fire on deliberately
broken records.  Run from the repository root (the name keeps it out of a
plain ``pytest`` collection):

    python3 -m pytest nocbench/selftest.py -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "0", "--trace", str(trace), "--size", "tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def test_declared_workloads_are_the_benchmark_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_declared_per_layer_metrics_are_the_traced_metrics():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert declared == spans.LAYER_UNITS


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_output_carries_exactly_the_declared_metrics(workload, trace):
    result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer"] if trace else BENCHMARK["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        assert result["metrics"]["trace.attributed_share"]["value"] >= 0.9


@pytest.fixture(scope="module")
def outcomes():
    """Each tiny workload run once in-process: ``(outcome, cache, sim_calls)``."""
    from repro.api.cache import ArtifactCache
    from repro.api.runner import Runner
    from repro.api.spec import ExperimentPlan

    base = HERE / "_work" / "selftest"
    runs = {}
    for workload, build in WORKLOADS.items():
        cache_dir = base / workload
        shutil.rmtree(cache_dir, ignore_errors=True)
        counter = spans.SimCallCounter().install()
        try:
            outcome = Runner(cache_dir=cache_dir, jobs=1).run(
                ExperimentPlan.from_dict(build(0, "tiny"))
            )
        finally:
            counter.uninstall()
        runs[workload] = (outcome, ArtifactCache(cache_dir), counter.sim_calls())
    yield runs
    shutil.rmtree(base, ignore_errors=True)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_intact_outcomes_pass_every_check(outcomes, workload):
    assert checks.check_outcome(workload, *outcomes[workload]) == ({}, [])


def test_a_missing_record_fails_its_spec(outcomes):
    outcome, cache, calls = outcomes["paper-figures"]
    broken = copy.deepcopy(outcome)
    lost = broken.results.pop()
    failures, _ = checks.check_outcome("paper-figures", broken, cache, calls)
    assert failures == {lost.spec.fingerprint(): ["no record"]}


def test_removal_adding_more_vcs_than_ordering_fails(outcomes):
    outcome, cache, calls = outcomes["paper-figures"]
    broken = copy.deepcopy(outcome)
    record = broken.results[0]
    record.removal_extra_vcs = record.ordering_extra_vcs + 1
    failures, _ = checks.check_outcome("paper-figures", broken, cache, calls)
    assert list(failures) == [record.spec.fingerprint()]


def test_a_cyclic_removal_design_fails(outcomes):
    from repro.api.cache import ArtifactCache
    from repro.api.runner import COST_KIND
    from repro.examples_data.paper_ring import paper_ring_design
    from repro.model.serialization import design_to_dict

    outcome, cache, calls = outcomes["paper-figures"]
    broken_cache = ArtifactCache(HERE / "_work" / "selftest" / "broken")
    for record in outcome.results:
        key = record.spec.cost_fingerprint()
        document = cache.get(COST_KIND, key)
        if record is outcome.results[0]:
            document["designs"]["removal"] = design_to_dict(paper_ring_design())
        broken_cache.put(COST_KIND, key, document)
    failures, _ = checks.check_outcome("paper-figures", outcome, broken_cache, calls)
    assert failures == {
        outcome.results[0].spec.fingerprint(): ["removal design has a cyclic CDG"]
    }


def test_a_deadlocked_protected_variant_fails(outcomes):
    outcome, cache, calls = outcomes["latency-grid"]
    broken = copy.deepcopy(outcome)
    record = broken.results[-1]
    record.simulation["variants"]["ordering"]["deadlocked"] = True
    failures, _ = checks.check_outcome("latency-grid", broken, cache, calls)
    assert failures == {record.spec.fingerprint(): ["ordering variant deadlocked"]}


def test_delivering_more_than_injected_fails(outcomes):
    outcome, cache, calls = outcomes["latency-grid"]
    broken = copy.deepcopy(outcome)
    metrics = broken.results[0].simulation["variants"]["unprotected"]
    metrics["packets_delivered"] = metrics["packets_injected"] + 1
    failures, _ = checks.check_outcome("latency-grid", broken, cache, calls)
    assert list(failures) == [broken.results[0].spec.fingerprint()]


def test_a_grid_that_ran_per_spec_fails_the_plan(outcomes):
    outcome, cache, calls = outcomes["latency-grid"]
    assert calls == (3, 0)
    _, plan_failures = checks.check_outcome("latency-grid", outcome, cache, (0, 9))
    assert len(plan_failures) == 1


def test_a_protected_policy_left_cyclic_fails_but_reroute_may(outcomes):
    outcome, cache, calls = outcomes["fault-availability"]
    broken = copy.deepcopy(outcome)
    by_policy = {r.spec.fault_recovery: r for r in broken.results}
    for policy in ("idle", "reroute"):
        resilience = by_policy[policy].simulation["variants"]["removal"]["resilience"]
        resilience["post_fault_deadlock_free"] = False
    failures, _ = checks.check_outcome("fault-availability", broken, cache, calls)
    assert list(failures) == [by_policy["idle"].spec.fingerprint()]


def test_digest_ignores_wall_clock_but_not_results(outcomes):
    outcome = outcomes["paper-figures"][0]
    digest = checks.record_digest(outcome.results)
    broken = copy.deepcopy(outcome)
    broken.results[0].removal_runtime_s += 1.0
    assert checks.record_digest(broken.results) == digest
    broken.results[0].removal_power_mw += 1e-9
    assert checks.record_digest(broken.results) != digest
