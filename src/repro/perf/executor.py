"""Parallel point executor for experiment plans.

Every spec of a plan (for example one point of the figure 8/9/10 reports)
is an independent synthesize → remove → order → estimate pipeline, so plans
parallelise embarrassingly well across processes.  :func:`parallel_map` is a
drop-in ordered ``map`` that fans work out over a
:class:`concurrent.futures.ProcessPoolExecutor`:

* **deterministic ordering** — results come back in input order regardless
  of which worker finishes first;
* **serial fallback** — ``jobs`` of ``None``/``0``/``1`` runs inline, and a
  pool that cannot be used at all (no ``fork``/``spawn`` support, unpicklable
  work item) falls back to the serial path instead of failing the sweep;
* **picklable work only** — callables must be module-level functions (or
  :func:`functools.partial` over one); every item's result is materialised
  before returning.

Every degradation warning (serial fallback, pool death with partial
results kept) carries a ``[noc-lint {...}]`` payload built by
:func:`repro.lint.findings.structured_warning`, so CI log scrapers parse
one schema for static lint findings and runtime degradations alike.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Callable, Iterable, List, Optional, Sequence, TypeVar

from repro.lint.findings import structured_warning

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` value to a concrete worker count.

    ``None``, ``0`` and ``1`` mean serial; a negative value means "one
    worker per CPU" (like ``make -j`` with no argument).
    """
    if jobs is None or jobs == 0:
        return 1
    if jobs < 0:
        return max(os.cpu_count() or 1, 1)
    return jobs


def parallel_map(
    func: Callable[[T], R],
    items: Iterable[T],
    *,
    jobs: Optional[int] = None,
    retries: int = 1,
    attempts_out: Optional[List[int]] = None,
) -> List[R]:
    """Ordered ``[func(item) for item in items]``, optionally across processes.

    With ``jobs`` resolving to 1 (the default) this is a plain serial list
    comprehension — same exceptions, same ordering.  With more workers the
    items are dispatched to a process pool; results are returned in input
    order.  If the pool cannot run the work at all (unpicklable function or
    items, broken interpreter support) the computation silently degrades to
    serial so callers never have to special-case platforms.

    When a worker dies mid-run (``BrokenProcessPool``), completed results
    are **kept** and only the unfinished items are re-dispatched to a fresh
    pool, at most ``retries`` extra pool attempts per item; an item that
    exhausts its retries runs serially in this process.  So an item's side
    effects (cache writes, file output) repeat only for the items actually
    caught in the crash, never for the whole batch.  ``attempts_out``, when
    given, is filled with the per-item execution counts in input order.

    Exceptions raised *by func* — in a worker or during a serial (re)run —
    propagate to the caller unchanged.
    """
    items = list(items)
    count = len(items)
    attempts = [0] * count

    def _record() -> None:
        if attempts_out is not None:
            attempts_out[:] = attempts

    def _serial(indices) -> None:
        for i in indices:
            attempts[i] += 1
            results[i] = func(items[i])
            done[i] = True
            _record()

    results: List[Optional[R]] = [None] * count
    done = [False] * count
    workers = min(resolve_jobs(jobs), max(count, 1))
    try:
        if workers <= 1 or count <= 1:
            _serial(range(count))
            return list(results)  # type: ignore[arg-type]
        # Cheap pre-flight: the callable plus one sample item must pickle.
        # The full item list is serialised by the pool itself during
        # dispatch; round-tripping it here would double the work and the
        # peak memory.
        try:
            pickle.dumps(func)
            pickle.dumps(items[0])
        except Exception:
            warnings.warn(
                structured_warning(
                    "process-boundary",
                    "parallel_map: work is not picklable, falling back to serial",
                ),
                RuntimeWarning,
                stacklevel=2,
            )
            _serial(range(count))
            return list(results)  # type: ignore[arg-type]

        pending = list(range(count))
        while pending:
            try:
                pool = ProcessPoolExecutor(max_workers=min(workers, len(pending)))
            except OSError as exc:  # e.g. no fork/spawn support on the platform
                warnings.warn(
                    structured_warning(
                        "process-serial-fallback",
                        f"parallel_map: cannot start worker processes "
                        f"({exc!r}), falling back to serial",
                    ),
                    RuntimeWarning,
                    stacklevel=2,
                )
                _serial(pending)
                return list(results)  # type: ignore[arg-type]
            try:
                with pool:
                    futures = []
                    for i in pending:
                        attempts[i] += 1
                        futures.append((i, pool.submit(func, items[i])))
                    for i, future in futures:
                        try:
                            results[i] = future.result()
                            done[i] = True
                        except (BrokenProcessPool, pickle.PicklingError):
                            pass
            except (BrokenProcessPool, pickle.PicklingError):
                # submit() or the pool shutdown itself blew up; the
                # per-future bookkeeping above already recorded whatever
                # finished before the crash.
                pass
            unfinished = [i for i in pending if not done[i]]
            if not unfinished:
                break
            # A dead pool means at least one worker was killed mid-item
            # (OOM, signal).  Retry just the unfinished items: a bounded
            # number of fresh-pool rounds each, then serially in this
            # process — never re-running the items that already completed.
            retryable = [i for i in unfinished if attempts[i] <= retries]
            exhausted = [i for i in unfinished if attempts[i] > retries]
            warnings.warn(
                structured_warning(
                    "process-pool-died",
                    f"parallel_map: process pool died with {len(unfinished)} of "
                    f"{count} item(s) unfinished; retrying "
                    f"{len(retryable)} in a fresh pool, running "
                    f"{len(exhausted)} serially (completed results are kept)",
                ),
                RuntimeWarning,
                stacklevel=2,
            )
            if exhausted:
                _serial(exhausted)
            pending = retryable
        return list(results)  # type: ignore[arg-type]
    finally:
        _record()
