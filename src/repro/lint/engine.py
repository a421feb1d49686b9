"""Lint orchestration: collect files, run every rule, report.

:func:`lint_paths` is the one entry point — the CLI subcommand and the
tests are thin adapters over it.  The pipeline:

1. collect ``.py`` files under the given paths (skipping hidden
   directories and ``__pycache__``);
2. parse each into a :class:`~repro.lint.base.FileContext` — a file that
   does not parse yields a single ``parse-error`` finding instead of
   aborting the run;
3. run every registered rule's per-file pass, drop findings whose line
   carries an inline ``# noc-lint: disable=`` comment;
4. run every rule's project-level pass (test files are parsed and
   provided, never linted).

Every finding that is not suppressed inline fails the run.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Union

from repro.lint.base import FileContext, ProjectContext, lint_rules
from repro.lint.findings import FINDINGS_FORMAT_VERSION, Finding
from repro.lint.suppress import split_suppressed

#: Rule id attached to files that fail to parse.
PARSE_ERROR_RULE = "parse-error"

#: Directory names never descended into.
_SKIPPED_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def _iter_python_files(paths: Sequence[Path]) -> List[Path]:
    """Every ``.py`` file under ``paths``, deduplicated, in sorted order."""
    seen = {}
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            seen[path.resolve()] = None
        elif path.is_dir():
            for candidate in sorted(path.rglob("*.py")):
                if any(part in _SKIPPED_DIRS for part in candidate.parts):
                    continue
                seen[candidate.resolve()] = None
    return sorted(seen)


def _module_name(path: Path) -> Optional[str]:
    """Dotted module name via the nearest package-root heuristic.

    Walks up while ``__init__.py`` siblings exist, so
    ``.../src/repro/api/spec.py`` maps to ``repro.api.spec`` regardless of
    where the lint root sits.
    """
    parts = [path.stem] if path.stem != "__init__" else []
    current = path.parent
    while (current / "__init__.py").exists():
        parts.insert(0, current.name)
        current = current.parent
    return ".".join(parts) or None


def load_file_context(path: Path, root: Path) -> Union[FileContext, Finding]:
    """Parse one file; a syntax error returns a ``parse-error`` finding."""
    try:
        rel_path = path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        rel_path = path.as_posix()
    try:
        source = path.read_text()
        tree = ast.parse(source, filename=str(path))
    except (OSError, SyntaxError, ValueError) as exc:
        line = getattr(exc, "lineno", 0) or 0
        return Finding(
            path=rel_path,
            line=line,
            rule=PARSE_ERROR_RULE,
            message=f"file could not be parsed: {exc}",
        )
    return FileContext(
        path=path,
        rel_path=rel_path,
        source=source,
        lines=source.splitlines(),
        tree=tree,
        module=_module_name(path),
    )


@dataclass
class LintReport:
    """Everything one lint run produced.

    ``new_findings`` are the findings no inline comment suppressed, sorted;
    any of them fails the run.
    """

    new_findings: List[Finding] = field(default_factory=list)
    suppressed: List[Finding] = field(default_factory=list)
    checked_files: int = 0

    @property
    def ok(self) -> bool:
        """True when every finding was suppressed inline (or none was made)."""
        return not self.new_findings

    def to_dict(self) -> dict:
        """The ``--format json`` document."""
        return {
            "format_version": FINDINGS_FORMAT_VERSION,
            "checked_files": self.checked_files,
            "ok": self.ok,
            "new_findings": [f.to_dict() for f in self.new_findings],
            "suppressed": len(self.suppressed),
        }


def lint_paths(
    paths: Sequence[Union[str, Path]],
    *,
    root: Optional[Union[str, Path]] = None,
    tests_dir: Optional[Union[str, Path]] = None,
    rules: Optional[Iterable[str]] = None,
) -> LintReport:
    """Run the linter and return a :class:`LintReport`.

    Parameters
    ----------
    paths:
        Files or directories to lint.
    root:
        Directory findings' paths are reported relative to (default: the
        current working directory).
    tests_dir:
        Test tree parsed (not linted) for cross-referencing rules; pass
        ``None`` to skip project rules that need tests.
    rules:
        Rule ids to run (default: every registered rule).
    """
    root_path = Path(root) if root is not None else Path.cwd()
    active = [lint_rules.get(rule_id)() for rule_id in (rules or lint_rules.names())]

    project = ProjectContext(root=root_path)
    raw_findings: List[Finding] = []
    suppressed: List[Finding] = []

    for path in _iter_python_files([Path(p) for p in paths]):
        loaded = load_file_context(path, root_path)
        if isinstance(loaded, Finding):
            raw_findings.append(loaded)
            continue
        project.files.append(loaded)

    for ctx in project.files:
        file_findings: List[Finding] = []
        for rule in active:
            file_findings.extend(rule.check_file(ctx))
        kept, dropped = split_suppressed(file_findings, ctx.lines)
        raw_findings.extend(kept)
        suppressed.extend(dropped)

    if tests_dir is not None:
        tests_path = Path(tests_dir)
        if tests_path.is_dir():
            for path in _iter_python_files([tests_path]):
                loaded = load_file_context(path, root_path)
                if isinstance(loaded, FileContext):
                    project.test_files.append(loaded)

    for rule in active:
        project_findings = list(rule.finalize(project))
        by_path = {ctx.rel_path: ctx.lines for ctx in project.files}
        for finding in project_findings:
            lines = by_path.get(finding.path)
            if lines is not None and split_suppressed([finding], lines)[1]:
                suppressed.append(finding)
            else:
                raw_findings.append(finding)

    raw_findings.sort()
    return LintReport(
        new_findings=raw_findings,
        suppressed=suppressed,
        checked_files=len(project.files),
    )
