"""Shared helpers for the benchmark harness.

The benches print their tables in a paper-like layout and store the raw
numbers as JSON under ``benchmarks/results/``, so a run leaves a record
that can be diffed against the previous one.

Run the whole harness with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

#: Where benchmark results are written (created on demand).
RESULTS_DIR = Path(__file__).parent / "results"


def save_results(name: str, data) -> Path:
    """Write one benchmark's data as JSON and return the path."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(data, indent=2, sort_keys=True, default=str))
    return path


def banner(title: str) -> str:
    """A visually distinct section header for the printed reports."""
    line = "=" * len(title)
    return f"\n{line}\n{title}\n{line}"


@pytest.fixture
def context_counters():
    """The design-context reuse counters, reset for one measurement window.

    Benchmarks that rely on cached state (shared switch graphs, route-delta
    CDG maintenance, indexed cost tables) take this fixture and assert the
    relevant counters moved — a refactor that silently falls back to
    rebuilding per call then fails the benchmark loudly instead of just
    showing up as a slower number.
    """
    from repro.perf.design_context import counters

    counters.reset()
    yield counters
