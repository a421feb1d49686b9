"""Content-addressed on-disk artifact cache for experiment runs.

Artifacts are JSON documents stored under ``<root>/<kind>/<key[:2]>/<key>.json``
where ``key`` is a SHA-256 content address derived from the producing
:class:`~repro.api.spec.RunSpec`.  Two kinds are in use today:

* ``"result"`` — the full :class:`~repro.api.result.RunResult` record of a
  spec, keyed by :meth:`~repro.api.spec.RunSpec.fingerprint`, so
  repeating a sweep never re-runs synthesis, removal, ordering, the
  power/area models or the simulator;
* ``"costs"`` — the cost bundle (removal/ordering/power/area scalars plus
  the unprotected, removal and ordering designs) keyed by
  :meth:`~repro.api.spec.RunSpec.cost_fingerprint`, shared by every spec
  that differs only along the simulation axis (e.g. the load points of
  one latency sweep).  It is the one cached copy of a spec's designs.

Writes are atomic (temp file + ``os.replace``) so concurrent sweep workers
can share one cache directory; a corrupt or truncated entry is treated as
a miss, moved aside into ``<root>/corrupt/`` (so the evidence survives for
debugging and the recompute's fresh write cannot race the broken file) and
recomputed, never trusted.  A worker killed mid-write leaves its
``.tmp`` file behind — those orphans are swept opportunistically the first
time a process constructs a cache over the directory (once, so per-spec
pool workers do not pay a tree walk per work item) and unconditionally by
:meth:`ArtifactCache.clear`, so crashed sweeps cannot leak disk forever.
Documents are serialized *without* key sorting: design documents encode
route insertion order in JSON object order, and re-sorting them would
perturb downstream iteration order.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, Optional, Union

_KEY_PREFIX_LEN = 2

#: Minimum age (seconds) before a construction-time sweep removes an orphaned
#: ``.tmp`` file.  Concurrent workers finish a write in well under this, so
#: only files from killed processes are collected.
_TMP_SWEEP_MIN_AGE_SECONDS = 3600.0

#: Cache roots already swept by this process.  Pool workers construct one
#: ArtifactCache per work item; sweeping the whole tree once per process
#: keeps the opportunistic cleanup off the per-spec hot path.
_SWEPT_ROOTS: set = set()


class ArtifactCache:
    """A content-addressed JSON store with hit/miss accounting."""

    def __init__(self, root: Union[str, Path]):
        self.root = Path(root).expanduser()
        self.hits = 0
        self.misses = 0
        self.quarantined = 0
        if self.root not in _SWEPT_ROOTS:
            _SWEPT_ROOTS.add(self.root)
            self.sweep_temp_files()

    # ------------------------------------------------------------------
    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / key[:_KEY_PREFIX_LEN] / f"{key}.json"

    def _quarantine(self, path: Path) -> Optional[Path]:
        """Move a corrupt entry into ``<root>/corrupt/`` (best effort).

        The move is a rename, so it cannot half-copy the broken file, and
        losing a race against a concurrent writer/quarantiner is fine —
        whoever wins, the poisoned path no longer answers lookups.
        Returns the quarantine location, or ``None`` when the move failed.
        """
        target_dir = self.root / "corrupt"
        try:
            target_dir.mkdir(parents=True, exist_ok=True)
            target = target_dir / path.name
            os.replace(path, target)
        except OSError:
            return None
        self.quarantined += 1
        return target

    def get(self, kind: str, key: str) -> Optional[Dict[str, Any]]:
        """The stored document, or ``None`` on miss (or corrupt entry).

        A present-but-unreadable entry (truncated JSON, I/O error) counts
        as a miss *and* is quarantined to ``<root>/corrupt/``, so the
        caller's recompute overwrites a clean slate.
        """
        path = self._path(kind, key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError:
            self.misses += 1
            self._quarantine(path)
            return None
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return document

    def put(self, kind: str, key: str, document: Dict[str, Any]) -> Path:
        """Atomically store ``document`` under ``(kind, key)``.

        Retries once when the temp file (or its directory) vanishes between
        write and rename — a concurrent :meth:`clear` sweeps ``.tmp`` files
        unconditionally, and losing that race must not crash the writer.
        """
        payload = json.dumps(document, indent=None, separators=(",", ":"))
        for attempt in range(2):
            path = self._path(kind, key)
            path.parent.mkdir(parents=True, exist_ok=True)
            fd, tmp_name = tempfile.mkstemp(
                dir=path.parent, prefix=f".{key[:8]}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(payload)
                os.replace(tmp_name, path)
            except FileNotFoundError:
                if attempt == 0:
                    continue
                raise
            except BaseException:
                try:
                    os.unlink(tmp_name)
                except OSError:
                    pass
                raise
            return path
        raise AssertionError("unreachable")  # pragma: no cover

    def has(self, kind: str, key: str) -> bool:
        """True when an entry exists (does not touch the hit/miss counters)."""
        return self._path(kind, key).is_file()

    # ------------------------------------------------------------------
    def entry_count(self, kind: Optional[str] = None) -> int:
        """Number of stored artifacts (optionally of one kind)."""
        base = self.root / kind if kind else self.root
        if not base.is_dir():
            return 0
        return sum(1 for _ in base.rglob("*.json"))

    def sweep_temp_files(self, *, min_age_seconds: float = _TMP_SWEEP_MIN_AGE_SECONDS) -> int:
        """Remove orphaned ``.tmp`` files older than ``min_age_seconds``.

        :meth:`put` writes through a temp file in the entry's directory; a
        worker killed between ``mkstemp`` and ``os.replace`` leaks it.  Only
        stale files are touched so a sweep can never race a live writer's
        in-flight temp file; returns how many were removed.
        """
        removed = 0
        if not self.root.is_dir():
            return removed
        cutoff = time.time() - min_age_seconds  # noc-lint: disable=det-wallclock - age math against file mtimes needs the wall clock; never feeds results
        for path in self.root.rglob("*.tmp"):
            try:
                if path.stat().st_mtime <= cutoff:
                    path.unlink()
                    removed += 1
            except OSError:
                pass
        return removed

    def clear(self) -> int:
        """Delete every artifact and temp file; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for pattern in ("*.json", "*.tmp"):
                for path in self.root.rglob(pattern):
                    try:
                        path.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactCache({str(self.root)!r}, hits={self.hits}, misses={self.misses})"
