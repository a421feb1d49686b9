"""The repository benchmark: cold experiment-plan runs, end to end and per layer.

Run from the repository root:

    python3 nocbench/run.py --workload paper-figures --seed 1 --seconds 25 --trace 0

Each workload (``nocbench/workloads.py``) is one experiment plan run through
``repro.api.runner.Runner`` serially, against an empty artifact cache, in a
fresh worker process (``nocbench/worker.py``).  The run repeats the workload
until ``--seconds`` have passed (and at least ``MIN_REPS`` times):

* ``--trace 0`` reports the end-to-end metrics, medians over the
  repetitions: ``setup_s`` (process start to the first ``Runner.run``
  call; set-up probes that stop there add samples), ``wall_s``
  (``Runner.run`` plus report rendering) and ``peak_rss_mb`` (the worker's
  peak resident memory).  Host times are scaled to a reference host speed
  (see ``CAL_REFERENCE_S``).
* ``--trace 1`` alternates untraced and traced repetitions and reports the
  medians of the traced ones' per-layer metrics (``nocbench/spans.py``),
  plus ``trace.overhead_s``: traced minus untraced ``wall_s``.  The last
  traced repetition's spans are written to
  ``nocbench/_work/spans-<workload>-seed<seed>.jsonl``.

Every repetition checks its records (``nocbench/checks.py``) after the
timed region and digests them; the digest must not change between
repetitions.  Output: a metric table, one envelope JSON line with the
samples, environment, checks and simulated quality metrics, and, as the
last line, ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = HERE / "_work"

sys.path.insert(0, str(HERE))
from spans import LAYER_UNITS  # noqa: E402
from worker import THREAD_CAP_VARS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Repetitions of each mode every run makes at least (traced ones only with
#: ``--trace 1``).  Set-up probes stop before ``Runner.run``; they are cheap,
#: so ``setup_s`` gets a median over many samples.
MIN_REPS = {"setup": 6, "untraced": 3, "traced": 2}
#: No repetition starts once the run could not finish within this budget.
RUN_BUDGET_S = 170.0
#: Duration of one ``worker.calibrate`` sample at the reference host speed.
#: Every host time is reported at that speed: scaled by ``CAL_REFERENCE_S``
#: over the calibration time measured around its own repetition.  Shared
#: hosts drift between speed phases about 1.5x apart that last minutes,
#: which no number of repetitions averages away; the kernel slows down with
#: the workloads, so the scaled times stay put.  Raw times are kept in the
#: envelope.
CAL_REFERENCE_S = 0.010

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def environment() -> Dict[str, Any]:
    """What the numbers depend on besides the code (numpy comes from a worker)."""
    return {
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": _git_sha(),
        "src_sha256": _tree_digest(ROOT / "src"),
    }


def _git_sha() -> Optional[str]:
    """HEAD of a checkout that is a git repository, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _tree_digest(root: Path) -> str:
    """SHA-256 over the python sources under ``root`` (path and content)."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_worker(args, mode: str, index: int, deadline: float) -> Optional[dict]:
    """One repetition in a fresh process; ``None`` when it crashed.

    ``mode`` is ``"setup"`` (stop before ``Runner.run``), ``"untraced"``
    or ``"traced"``.
    """
    cache_dir = WORK_DIR / f"cache-{os.getpid()}-{index}"
    shutil.rmtree(cache_dir, ignore_errors=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["PYTHONHASHSEED"] = "0"
    env.update({name: "1" for name in THREAD_CAP_VARS})
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--size", args.size,
        "--trace", "1" if mode == "traced" else "0", "--cache-dir", str(cache_dir),
    ] + (["--setup-only"] if mode == "setup" else [])
    spawned_at = time.perf_counter()
    try:
        completed = subprocess.run(
            command + ["--spawned-at", repr(spawned_at)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired:
        print(f"repetition {index} timed out", file=sys.stderr)
        return None
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    if completed.returncode != 0:
        sys.stderr.write(completed.stderr)
        print(f"repetition {index} exited with {completed.returncode}", file=sys.stderr)
        return None
    report = json.loads(completed.stdout.splitlines()[-1])
    report["mode"] = mode
    return report


def _schedule(args, reports: List[dict]) -> Optional[str]:
    """The next repetition's mode, or ``None`` once the minimums are met."""
    done = {mode: sum(1 for r in reports if r["mode"] == mode) for mode in MIN_REPS}
    if done["setup"] < MIN_REPS["setup"]:
        return "setup"
    if args.trace and done["traced"] < done["untraced"]:
        # A traced run alternates, so both sides see the same machine state.
        return "traced"
    if done["untraced"] < MIN_REPS["untraced"] or (
        args.trace and done["traced"] < MIN_REPS["traced"]
    ):
        return "untraced"
    return None


def repeat(args) -> Tuple[List[dict], int]:
    """Repeat the workload; returns ``(reports, crashed repetition count)``."""
    started = time.perf_counter()
    deadline = started + RUN_BUDGET_S
    reports: List[dict] = []
    crashed = 0
    longest = 0.0
    index = 0
    while crashed < 2:
        mode = _schedule(args, reports)
        now = time.perf_counter()
        if mode is None:
            if now - started >= args.seconds:
                break
            mode = "untraced"
        if now + longest > deadline:
            break
        report = run_worker(args, mode, index, deadline)
        if mode != "setup":
            longest = max(longest, time.perf_counter() - now)
        index += 1
        if report is None:
            crashed += 1
        else:
            reports.append(report)
    return reports, crashed


def _scale(report: dict) -> float:
    """Factor taking a repetition's host times to the reference speed."""
    return CAL_REFERENCE_S / report["cal_s"]


def summarise(args, reports: List[dict], crashed: int) -> tuple:
    """Fold the repetitions into ``(envelope, result)``."""
    untraced = [r for r in reports if r["mode"] == "untraced"]
    traced = [r for r in reports if r["mode"] == "traced"]
    probes = [r for r in reports if r["mode"] == "setup"]
    samples = {
        "setup_s": [r["setup_s"] * _scale(r) for r in untraced + probes],
        "wall_s": [r["wall_s"] * _scale(r) for r in untraced],
        "peak_rss_mb": [r["peak_rss_mb"] for r in untraced],
        "raw_setup_s": [r["setup_s"] for r in untraced + probes],
        "raw_wall_s": [r["wall_s"] for r in untraced],
        "cal_s": [r["cal_s"] for r in untraced + probes],
    }
    medians = {name: statistics.median(values) for name, values in samples.items()}
    runs = untraced + traced
    digests = sorted({r["digest"] for r in runs})
    stable = len(digests) == 1
    attempted = sum(r["attempted"] for r in runs) + crashed
    failed = sum(r["failed"] for r in runs) + crashed
    if not stable:
        failed = attempted
    stages: Dict[str, float] = {}
    if traced:
        for name in traced[0]["layers"]:
            timed = LAYER_UNITS[name] in ("s", "ns")
            stages[name] = statistics.median(
                r["layers"][name] * (_scale(r) if timed else 1.0) for r in traced
            )
        stages["trace.overhead_s"] = (
            statistics.median(r["wall_s"] * _scale(r) for r in traced) - medians["wall_s"]
        )
    if args.trace:
        metrics = {n: {"value": stages[n], "unit": u} for n, u in LAYER_UNITS.items()}
    else:
        metrics = {n: {"value": medians[n], "unit": u} for n, u in END_TO_END_UNITS.items()}
    result = {
        "correct": failed == 0 and crashed == 0 and stable,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    envelope = {
        "bench": f"nocbench/{args.workload}",
        "config": {
            "workload": args.workload,
            "seed": args.seed,
            "size": args.size,
            "seconds": args.seconds,
            "trace": args.trace,
            "cal_reference_s": CAL_REFERENCE_S,
            "plan": WORKLOADS[args.workload](args.seed, args.size),
        },
        "env": {**environment(), **untraced[0]["env"]},
        "rounds": len(reports),
        "samples": samples,
        "min": {name: min(values) for name, values in samples.items()},
        "median": medians,
        "stages": stages,
        "checks": {
            "digest": digests[0] if stable else digests,
            "digest_stable": stable,
            "crashed_repetitions": crashed,
            "spec_failures": [r["failures"] for r in runs if r["failures"]],
            "plan_failures": [f for r in runs for f in r["plan_failures"]],
        },
        "quality": untraced[0]["quality"],
    }
    return envelope, result


def print_table(envelope: dict, result: dict) -> None:
    config = envelope["config"]
    print(f"workload {config['workload']}  seed {config['seed']}  size {config['size']}  "
          f"repetitions {envelope['rounds']}")
    median = envelope["median"]
    for name, unit in END_TO_END_UNITS.items():
        raw = f", raw {median['raw_' + name]:.4f}" if "raw_" + name in median else ""
        print(f"  {name:<34} {median[name]:>12.4f} {unit}  (host, median{raw})")
    print(f"  {'host speed (calibration sample)':<34} {median['cal_s']:>12.4f} s  "
          f"(reference {CAL_REFERENCE_S} s)")
    for name, entry in envelope["quality"].items():
        extra = f", {entry['samples']} samples" if "samples" in entry else ""
        print(f"  {name:<34} {entry['value']!s:>12} {entry['unit']}  (simulated{extra})")
    for name in LAYER_UNITS:
        if name in envelope["stages"]:
            value = envelope["stages"][name]
            print(f"  {name:<34} {value:>12.4f} {LAYER_UNITS[name]}  (traced, median)")
    checks = envelope["checks"]
    print(f"  checks: {result['attempted'] - result['failed']}/{result['attempted']} "
          f"specs passed, digest stable: {checks['digest_stable']}")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full",
        help="tiny: a seconds-long configuration of the same workload, for the self-test",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    WORK_DIR.mkdir(exist_ok=True)
    reports, crashed = repeat(args)
    modes = {r["mode"] for r in reports}
    if "untraced" not in modes or (args.trace and "traced" not in modes):
        print("too few repetitions completed; nothing to report", file=sys.stderr)
        return 1
    envelope, result = summarise(args, reports, crashed)
    print_table(envelope, result)
    print(json.dumps(envelope, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
