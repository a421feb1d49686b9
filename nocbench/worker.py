"""One cold run of one workload, in a fresh process.

``run.py`` starts this script once per repetition, so every repetition pays
the imports, starts with empty in-process memos and runs against its own
empty artifact cache.  It prints one JSON line: the timings, the host
speed measured around them (:func:`calibrate`), the check outcome, the
record digest, the simulated quality metrics and, with ``--trace 1``, the
per-layer metrics.

    python3 nocbench/worker.py --workload latency-grid --seed 3 \
        --cache-dir nocbench/_work/cache --spawned-at 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Environment variables capping numpy/BLAS thread pools (set by run.py).
THREAD_CAP_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Calibration samples taken before and after the timed region.
CAL_SAMPLES = 10
#: Iterations of the calibration kernel per sample.
CAL_ITERATIONS = 60_000


def calibrate() -> List[float]:
    """Durations of a fixed pure-Python kernel: the host's speed right now.

    The workloads are mostly interpreter-bound like this kernel, so the
    kernel slows down with them when other tenants contend for the CPU.
    """
    durations = []
    for _ in range(CAL_SAMPLES):
        start = time.perf_counter()
        table: Dict[int, int] = {}
        for i in range(CAL_ITERATIONS):
            key = i & 1023
            table[key] = table.get(key, 0) + i
        durations.append(time.perf_counter() - start)
    return durations


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="stop before Runner.run; report only setup_s and the host speed",
    )
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument(
        "--spawned-at",
        type=float,
        required=True,
        help="time.perf_counter() of the parent just before it started this process",
    )
    return parser.parse_args(argv)


def run(args: argparse.Namespace) -> dict:
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"repro was imported from {repro.__file__}, not from {SRC}")
    # The batched engine imports numpy lazily; import it here so set-up
    # time always covers it, whichever workload runs.
    import numpy
    import repro.perf.batch_engine  # noqa: F401
    from repro.api.cache import ArtifactCache
    from repro.api.runner import Runner
    from repro.api.spec import ExperimentPlan

    import checks
    import spans
    from workloads import WORKLOADS

    plan = ExperimentPlan.from_dict(WORKLOADS[args.workload](args.seed, args.size))
    setup_s = time.perf_counter() - args.spawned_at
    calibration = calibrate()
    if args.setup_only:
        return {"setup_s": setup_s, "cal_s": statistics.fmean(calibration)}
    probe = spans.Tracer() if args.trace else spans.SimCallCounter()
    probe.install()
    started = time.perf_counter()
    try:
        outcome = Runner(cache_dir=args.cache_dir, jobs=1).run(plan)
        outcome.render_reports()
    finally:
        wall_s = time.perf_counter() - started
        probe.uninstall()
    calibration += calibrate()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures, plan_failures = checks.check_outcome(
        args.workload, outcome, ArtifactCache(args.cache_dir), probe.sim_calls()
    )
    attempted = len(outcome.plan.all_specs())
    report = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cal_s": statistics.fmean(calibration),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": attempted if plan_failures else len(failures),
        "failures": failures,
        "plan_failures": plan_failures,
        "digest": checks.record_digest(outcome.results),
        "quality": checks.quality_metrics(args.workload, outcome),
        "env": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "thread_caps": {name: os.environ.get(name) for name in THREAD_CAP_VARS},
        },
    }
    if args.trace:
        report["layers"] = probe.layer_metrics(wall_s, outcome.results)
        probe.write(HERE / "_work" / f"spans-{args.workload}-seed{args.seed}.jsonl")
    return report


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        report = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
