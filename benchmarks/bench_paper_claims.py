"""The paper's Section 5 claims, checked over ``plans/paper_figures.json``.

One cold run of the checked-in figure plan through
:class:`~repro.api.runner.Runner` regenerates Figures 8, 9 and 10 and the
area and overhead claims.  Each report is printed in a paper-like layout,
saved under ``benchmarks/results/`` and checked against the *shape* the
paper reports, not its absolute numbers:

* Figure 8 (D26_media, 5..25 switches): an application-specific topology
  can be deadlock free without restricting routing, so removal needs no
  more VCs than resource ordering at any point and none at half the points
  or more, while ordering grows with the switch count.
* Figure 9 (D36_8, 10..35 switches): the stress case has CDG cycles, yet
  removal needs strictly fewer VCs at every point; ordering at the last
  point is at least 3x the first, the largest removal value stays under
  half the largest ordering value, and the average reduction is above 60%
  (the paper reports 88%).
* Figure 10 (six benchmarks @ 14 switches): normalised ordering power is at
  least 1 everywhere and the average saving lies between 1% and 30% (the
  paper reports 8.6%).
* Area: the average VC reduction is above 60% (paper: 88%) and the average
  area saving above 5% (paper: 66%; our ORION-style router keeps a larger
  VC-independent area share, so only the direction and ranking carry over).
* Overhead against unprotected designs: both averages stay below 5% (the
  paper's "less than 5%") and no power overhead is negative.
* Runtime ("the method runs within minutes even for the largest
  benchmark"), read from the records' own ``removal_runtime_s``: removal
  over Figure 10's six benchmarks takes under 120 s in total, and under
  60 s at every Figure 9 point.

Runnable standalone or under the harness::

    PYTHONPATH=src python benchmarks/bench_paper_claims.py
    cd benchmarks && PYTHONPATH=../src python -m pytest bench_paper_claims.py -q -s
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

from conftest import banner, save_results

from repro.analysis.metrics import format_table, percent_reduction
from repro.api.reports import report_types
from repro.api.runner import PlanResult, Runner
from repro.api.spec import ExperimentPlan

PLAN_PATH = Path(__file__).resolve().parent.parent / "plans" / "paper_figures.json"


def _failed(report: str, claims: Sequence[Tuple[str, bool]]) -> List[str]:
    """The claims that do not hold, prefixed with their report name."""
    return [f"{report}: {claim}" for claim, holds in claims if not holds]


def _print_table(title: str, data: Dict, columns: Dict[str, str]) -> None:
    """Banner plus one row per point; ``columns`` maps header -> data key."""
    print(banner(title))
    print(format_table(list(columns), list(zip(*(data[key] for key in columns.values())))))


def _figure8(data: Dict) -> List[str]:
    removal = data["deadlock_removal_vcs"]
    ordering = data["resource_ordering_vcs"]
    _print_table("Figure 8 — number of extra VCs vs. switch count (D26_media)", data, {
        "switch count": "switch_counts",
        "resource ordering VCs": "resource_ordering_vcs",
        "deadlock removal VCs": "deadlock_removal_vcs",
    })
    print(
        "\npaper shape: removal ~0 for most switch counts, ordering grows with "
        f"switch count.\nreproduced: removal total {sum(removal)} VC(s), "
        f"ordering total {sum(ordering)} VC(s) over the sweep."
    )
    return _failed("figure8", [
        ("removal <= ordering at every point",
         all(r <= o for r, o in zip(removal, ordering))),
        ("removal VCs are zero at half the points or more",
         removal.count(0) >= len(data["switch_counts"]) // 2),
        ("ordering grows with the switch count", ordering[-1] > ordering[0]),
    ])


def _figure9(data: Dict) -> List[str]:
    removal = data["deadlock_removal_vcs"]
    ordering = data["resource_ordering_vcs"]
    reductions = [round(percent_reduction(o, r), 1) for o, r in zip(ordering, removal)]
    average_reduction = sum(reductions) / len(reductions)
    _print_table("Figure 9 — number of extra VCs vs. switch count (D36_8)",
                 dict(data, reductions=reductions), {
        "switch count": "switch_counts",
        "resource ordering VCs": "resource_ordering_vcs",
        "deadlock removal VCs": "deadlock_removal_vcs",
        "reduction [%]": "reductions",
    })
    print(
        "\npaper shape: ordering grows to >100 VCs at 35 switches, removal stays "
        f"small.\nreproduced: average VC reduction {average_reduction:.1f}% "
        "(paper reports an 88% average across its benchmark set)."
    )
    return _failed("figure9", [
        ("removal < ordering at every point",
         all(r < o for r, o in zip(removal, ordering))),
        ("ordering at the last point >= 3x the first", ordering[-1] >= 3 * ordering[0]),
        ("largest removal value < half the largest ordering value",
         max(removal) < max(ordering) / 2),
        ("average VC reduction > 60%", average_reduction > 60.0),
    ])


def _figure10(data: Dict) -> List[str]:
    average = data["average_power_saving_percent"]
    _print_table("Figure 10 — normalised power consumption (14-switch topologies)", data, {
        "benchmark": "benchmarks",
        "deadlock removal": "deadlock_removal_normalised_power",
        "resource ordering": "resource_ordering_normalised_power",
        "saving [%]": "power_saving_percent",
    })
    print(
        "\naverage power saving of deadlock removal vs. resource ordering: "
        f"{average:.2f}% (paper reports an average of 8.6%)"
    )
    return _failed("figure10", [
        ("normalised ordering power >= 1 at every point",
         all(v >= 1.0 for v in data["resource_ordering_normalised_power"])),
        ("average power saving between 1% and 30%", 1.0 < average < 30.0),
    ])


def _area(data: Dict) -> List[str]:
    _print_table("Section 5 — VC and area reduction vs. resource ordering (14 switches)", data, {
        "benchmark": "benchmarks",
        "removal VCs": "removal_extra_vcs",
        "ordering VCs": "ordering_extra_vcs",
        "VC reduction [%]": "vc_reduction_percent",
        "area saving [%]": "area_saving_percent",
    })
    print(f"\naverage VC reduction  : {data['average_vc_reduction_percent']:.1f}% (paper: 88%)")
    print(
        f"average area saving   : {data['average_area_saving_percent']:.1f}% "
        "(paper: 66%; this router model has a larger VC-independent area share)"
    )
    return _failed("area", [
        ("average VC reduction > 60%", data["average_vc_reduction_percent"] > 60.0),
        ("average area saving > 5%", data["average_area_saving_percent"] > 5.0),
        ("removal <= ordering at every point",
         all(r <= o for r, o in zip(data["removal_extra_vcs"], data["ordering_extra_vcs"]))),
    ])


def _overhead(data: Dict) -> List[str]:
    _print_table("Section 5 — overhead of deadlock removal vs. unprotected designs", data, {
        "benchmark": "benchmarks",
        "power overhead [%]": "power_overhead_percent",
        "area overhead [%]": "area_overhead_percent",
    })
    print(f"\naverage power overhead: {data['average_power_overhead_percent']:.2f}% (paper: <5%)")
    print(f"average area overhead : {data['average_area_overhead_percent']:.2f}% (paper: <5%)")
    return _failed("overhead", [
        ("average power overhead < 5%", data["average_power_overhead_percent"] < 5.0),
        ("average area overhead < 5%", data["average_area_overhead_percent"] < 5.0),
        ("every power overhead >= 0", all(v >= 0.0 for v in data["power_overhead_percent"])),
    ])


#: Report type -> (results file name, printer returning the failed claims).
REPORTS = {
    "figure8": ("figure8_d26_media", _figure8),
    "figure9": ("figure9_d36_8", _figure9),
    "figure10": ("figure10_power", _figure10),
    "area": ("area_savings", _area),
    "overhead": ("overhead_vs_unprotected", _overhead),
}


def _runtime(outcome: PlanResult) -> List[str]:
    lookup = outcome.results_by_fingerprint()
    params = {request.type: request.params for request in outcome.plan.reports}

    def seconds(report: str) -> List[float]:
        specs = report_types.get(report).specs(params[report])
        return [lookup[spec.fingerprint()].removal_runtime_s for spec in specs]

    figure10, figure9 = seconds("figure10"), seconds("figure9")
    print(banner("Section 5 — removal runtime (this run's records)"))
    print(f"Figure 10, six benchmarks @ 14 switches: {sum(figure10):.3f} s in total")
    print(f"Figure 9, D36_8 at 10..35 switches: {max(figure9):.3f} s at the slowest point")
    return _failed("runtime", [
        ("removal over Figure 10's benchmarks < 120 s in total", sum(figure10) < 120.0),
        ("removal < 60 s at every Figure 9 point", all(s < 60.0 for s in figure9)),
    ])


def run_paper_figures() -> PlanResult:
    """Cold, uncached run of the figure plan."""
    return Runner().run(ExperimentPlan.load(PLAN_PATH))


def check_paper_claims(outcome: PlanResult) -> List[str]:
    """Print and save every report; return the claims that do not hold."""
    failures: List[str] = []
    for name, data in outcome.render_reports():
        result_name, check = REPORTS[name]
        failures.extend(check(data))
        save_results(result_name, data)
    return failures + _runtime(outcome)


def test_paper_claims(benchmark):
    """Harness entry: regenerate every figure and assert its shape."""
    outcome = benchmark.pedantic(run_paper_figures, rounds=1, iterations=1)
    failures = check_paper_claims(outcome)
    assert not failures, "; ".join(failures)


def main() -> int:
    failures = check_paper_claims(run_paper_figures())
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
