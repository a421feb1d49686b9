"""Section 5 runtime claim.

"In practice our algorithm runs fast.  We ran our experiments on a 2 GHz
Linux machine.  The method runs within minutes even for the largest
benchmark and it is scalable."

This benchmark measures the wall-clock runtime of the removal algorithm on
all six benchmarks at the paper's 14-switch configuration, and additionally
sweeps D36_8 over growing switch counts to show the scaling trend.  Absolute
times are not comparable to the authors' C++ tool on 2009 hardware; the
claim reproduced is the order of magnitude (seconds, not hours) and the
graceful growth with design size.
"""

from __future__ import annotations

import time
from typing import Dict, List

from conftest import banner, save_results

from repro.analysis.metrics import format_table
from repro.api.reports import FIGURE10_BENCHMARKS, FIGURE10_SWITCH_COUNT
from repro.benchmarks.registry import get_benchmark
from repro.core.removal import remove_deadlocks
from repro.synthesis.builder import SynthesisConfig, synthesize_design


def runtime_scaling() -> Dict[str, List]:
    """Fresh synthesis and removal wall-clock for every benchmark.

    Runs on the direct path, not the cached runner: the point is to measure
    fresh synthesis and removal, which a cache hit would falsify.
    """
    synthesis_seconds: List[float] = []
    removal_seconds: List[float] = []
    added_vcs: List[int] = []
    for name in FIGURE10_BENCHMARKS:
        start = time.perf_counter()
        design = synthesize_design(
            get_benchmark(name), SynthesisConfig(n_switches=FIGURE10_SWITCH_COUNT)
        )
        synthesis_seconds.append(time.perf_counter() - start)
        result = remove_deadlocks(design)
        removal_seconds.append(result.runtime_seconds)
        added_vcs.append(result.added_vc_count)
    return {
        "benchmarks": list(FIGURE10_BENCHMARKS),
        "switch_count": FIGURE10_SWITCH_COUNT,
        "synthesis_seconds": synthesis_seconds,
        "removal_seconds": removal_seconds,
        "added_vcs": added_vcs,
        "total_removal_seconds": sum(removal_seconds),
    }


def test_runtime_all_benchmarks(benchmark):
    """Removal runtime for every benchmark at 14 switches."""
    data = benchmark.pedantic(runtime_scaling, rounds=1, iterations=1)

    print(banner("Section 5 — removal runtime per benchmark (14 switches)"))
    rows = []
    for name, synth, removal, vcs in zip(
        data["benchmarks"],
        data["synthesis_seconds"],
        data["removal_seconds"],
        data["added_vcs"],
    ):
        rows.append([name, round(synth, 3), round(removal, 3), vcs])
    print(
        format_table(
            ["benchmark", "synthesis [s]", "removal [s]", "VCs added"], rows
        )
    )
    print(
        f"\ntotal removal time over all benchmarks: "
        f"{data['total_removal_seconds']:.2f} s (paper: 'within minutes')"
    )
    save_results("runtime_all_benchmarks", data)
    assert data["total_removal_seconds"] < 120.0


def test_runtime_scaling_with_switch_count(benchmark):
    """Scaling of the removal runtime with the switch count (D36_8)."""
    def sweep():
        traffic = get_benchmark("D36_8")
        points = []
        for count in (10, 18, 26, 35):
            design = synthesize_design(traffic, SynthesisConfig(n_switches=count))
            start = time.perf_counter()
            result = remove_deadlocks(design)
            elapsed = time.perf_counter() - start
            points.append(
                {
                    "switch_count": count,
                    "channels": design.topology.channel_count,
                    "removal_seconds": elapsed,
                    "added_vcs": result.added_vc_count,
                    "iterations": result.iterations,
                }
            )
        return points

    points = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(banner("Removal runtime scaling with switch count (D36_8)"))
    rows = [
        [p["switch_count"], p["channels"], p["iterations"], p["added_vcs"],
         round(p["removal_seconds"], 3)]
        for p in points
    ]
    print(
        format_table(
            ["switch count", "channels", "iterations", "VCs added", "removal [s]"], rows
        )
    )
    save_results("runtime_scaling_d36_8", points)
    assert all(p["removal_seconds"] < 60.0 for p in points)
