"""The results writer of the benchmark scripts with a ``--smoke`` mode."""

from __future__ import annotations

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def persist(name: str, data: dict, *, smoke: bool) -> Path:
    """Write ``data`` to ``BENCH_<name>.json`` at the repository root.

    A smoke run writes ``BENCH_<name>.smoke.json`` instead, so it never
    replaces the committed full results.
    """
    path = REPO_ROOT / (f"BENCH_{name}.smoke.json" if smoke else f"BENCH_{name}.json")
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path
