"""The repo-level lint contract this PR establishes.

``src`` lints clean (nothing grandfathers a finding), and the lint
package itself is clean with *zero* suppressions — the checker does not
get to excuse itself.  These tests are the in-process mirror of the CI
gate, so a finding introduced by a future PR fails the suite even before
CI runs the CLI.
"""

import io
import json
import re
import tokenize
from pathlib import Path

import pytest

from repro.lint.engine import lint_paths
from repro.lint.findings import FINDING_KEYS
from repro.perf.executor import parallel_map

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestRepoIsClean:
    def test_src_tree_has_no_findings(self):
        report = lint_paths(
            [REPO_ROOT / "src"],
            root=REPO_ROOT,
            tests_dir=REPO_ROOT / "tests",
        )
        assert report.new_findings == [], [f.render() for f in report.new_findings]

    def test_lint_package_is_clean_without_baseline_or_suppressions(self):
        report = lint_paths(
            [REPO_ROOT / "src" / "repro" / "lint"], root=REPO_ROOT
        )
        assert report.new_findings == [], [f.render() for f in report.new_findings]
        assert report.suppressed == []

    def test_lint_package_source_carries_no_disable_comments(self):
        for path in sorted((REPO_ROOT / "src" / "repro" / "lint").rglob("*.py")):
            tokens = tokenize.generate_tokens(
                io.StringIO(path.read_text()).readline
            )
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    assert "noc-lint" not in token.string, (
                        f"{path}:{token.start[0]} suppresses the linter "
                        "inside the linter"
                    )


def _identity(value):
    return value


class TestExecutorWarningPayloads:
    def test_serial_fallback_warning_carries_the_finding_schema(self):
        with pytest.warns(RuntimeWarning, match="not picklable") as caught:
            out = parallel_map(_identity, [lambda: 1, lambda: 2], jobs=2)
        assert len(out) == 2
        message = next(
            str(w.message) for w in caught if "not picklable" in str(w.message)
        )
        match = re.search(r"\[noc-lint (\{.*\})\]$", message)
        assert match, message
        payload = json.loads(match.group(1))
        assert set(payload) == set(FINDING_KEYS)
        assert payload["rule"] == "process-boundary"
        assert "not picklable" in payload["message"]

    def test_prose_prefix_is_unchanged_for_log_readers(self):
        with pytest.warns(RuntimeWarning) as caught:
            parallel_map(_identity, [lambda: 1, lambda: 2], jobs=2)
        message = str(caught[0].message)
        assert message.startswith(
            "parallel_map: work is not picklable, falling back to serial"
        )
