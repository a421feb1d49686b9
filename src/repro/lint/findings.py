"""The :class:`Finding` record — one lint diagnostic, as plain data.

A finding pins down *what* (``rule``), *where* (``path``/``line``/``col``)
and *why* (``message``).  Findings serialize to the one JSON schema shared
by the ``noc-deadlock lint --format json`` output and the structured
warning payloads :mod:`repro.perf.executor` emits (see
:func:`structured_warning`), so CI log scraping sees a uniform shape
everywhere.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

#: Version tag of the findings JSON schema.
FINDINGS_FORMAT_VERSION = 1

#: The keys of one serialized finding, in canonical order.  Shared by the
#: lint JSON output and the executor warning payloads.
FINDING_KEYS = ("rule", "path", "line", "col", "message")


@dataclass(frozen=True, order=True)
class Finding:
    """One diagnostic: a rule violation at a source location.

    Attributes
    ----------
    path:
        Repo-relative POSIX path of the offending file (empty for
        project-level findings that have no single home).
    line:
        1-based line of the offending node (0 when not applicable).
    rule:
        Identifier of the rule that produced the finding (e.g.
        ``det-global-random``) — the token an inline
        ``# noc-lint: disable=<rule>`` comment names.
    message:
        Human-readable description naming the offending symbol.
    col:
        0-based column of the offending node.
    """

    path: str
    line: int
    rule: str
    message: str
    col: int = 0

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """The canonical JSON form (key order fixed by :data:`FINDING_KEYS`)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Finding":
        return cls(
            path=str(data.get("path", "")),
            line=int(data.get("line", 0)),
            rule=str(data["rule"]),
            message=str(data["message"]),
            col=int(data.get("col", 0)),
        )

    # ------------------------------------------------------------------
    def render(self) -> str:
        """One-line human form: ``path:line:col: [rule] message``."""
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"


def structured_warning(rule: str, message: str, *, path: Optional[str] = None) -> str:
    """``message`` plus a machine-readable finding payload.

    Runtime warning paths (e.g. :func:`repro.perf.executor.parallel_map`'s
    serial fallback) append this payload so CI log scrapers can parse one
    schema for static findings and runtime degradations alike::

        parallel_map: ... falling back to serial [noc-lint {"col": 0, ...}]
    """
    payload = {
        "rule": rule,
        "path": path or "",
        "line": 0,
        "col": 0,
        "message": message,
    }
    return f"{message} [noc-lint {json.dumps(payload, sort_keys=True)}]"
