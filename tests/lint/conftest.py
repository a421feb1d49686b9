"""Shared fixtures for the noc-lint test suite.

``lint_project`` builds a throwaway project tree from inline sources and
runs :func:`repro.lint.engine.lint_paths` over it, so every rule test is a
small fixture-file scenario: write the offending (or clean) source, lint,
assert on the report.  File keys are paths relative to the project root
(``"src/repro/api/spec.py"``), so path- and module-sensitive rules see the
same shapes they see in the real repo.
"""

import textwrap
from pathlib import Path

import pytest

from repro.lint.engine import lint_paths

#: The real repository root (tests/lint/conftest.py -> repo).
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture
def lint_project(tmp_path):
    """Factory: write fixture files, lint them, return the report.

    ``files`` maps root-relative paths to sources (dedented before
    writing); ``tests`` does the same under ``tests/`` and enables the
    project-level cross-referencing pass.  ``rules`` restricts the run to
    the rule ids under test so fixtures stay minimal.
    """

    def run(files, *, tests=None, rules=None):
        top_level = set()
        for rel, source in files.items():
            target = tmp_path / rel
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(textwrap.dedent(source))
            top_level.add(rel.split("/")[0])
        tests_dir = None
        if tests is not None:
            tests_dir = tmp_path / "tests"
            for rel, source in tests.items():
                target = tests_dir / rel
                target.parent.mkdir(parents=True, exist_ok=True)
                target.write_text(textwrap.dedent(source))
        return lint_paths(
            [tmp_path / name for name in sorted(top_level)],
            root=tmp_path,
            tests_dir=tests_dir,
            rules=rules,
        )

    return run
