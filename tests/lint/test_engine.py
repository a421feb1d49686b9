"""Lint orchestration: file collection, parse errors, report schema."""

from repro.lint.engine import PARSE_ERROR_RULE, lint_paths
from repro.lint.findings import FINDING_KEYS


class TestFileCollection:
    def test_counts_checked_files(self, lint_project):
        report = lint_project(
            {"src/a.py": "x = 1\n", "src/pkg/b.py": "y = 2\n"},
            rules=["det-wallclock"],
        )
        assert report.checked_files == 2
        assert report.ok

    def test_pycache_is_never_descended_into(self, lint_project):
        report = lint_project(
            {"src/__pycache__/broken.py": "def broken(:\n", "src/ok.py": "x = 1\n"},
            rules=["det-wallclock"],
        )
        assert report.checked_files == 1
        assert report.ok


class TestParseErrors:
    def test_syntax_error_becomes_a_parse_error_finding(self, lint_project):
        report = lint_project({"src/broken.py": "def broken(:\n"}, rules=["det-wallclock"])
        assert not report.ok
        (finding,) = report.new_findings
        assert finding.rule == PARSE_ERROR_RULE
        assert finding.path == "src/broken.py"
        assert "could not be parsed" in finding.message

    def test_parse_error_does_not_abort_other_files(self, lint_project):
        report = lint_project(
            {
                "src/broken.py": "def broken(:\n",
                "src/clock.py": "import time\nt = time.time()\n",
            },
            rules=["det-wallclock"],
        )
        assert sorted(f.rule for f in report.new_findings) == [
            "det-wallclock",
            PARSE_ERROR_RULE,
        ]


class TestReportSchema:
    def test_json_document_shape(self, lint_project):
        report = lint_project(
            {"src/clock.py": "import time\nt = time.time()\n"},
            rules=["det-wallclock"],
        )
        document = report.to_dict()
        assert set(document) == {
            "format_version",
            "checked_files",
            "ok",
            "new_findings",
            "suppressed",
        }
        assert document["format_version"] == 1
        assert document["ok"] is False
        (entry,) = document["new_findings"]
        assert set(entry) == set(FINDING_KEYS)

    def test_findings_come_back_sorted(self, lint_project):
        report = lint_project(
            {
                "src/z.py": "import time\nt = time.time()\n",
                "src/a.py": "import time\nt = time.time()\n",
            },
            rules=["det-wallclock"],
        )
        assert [f.path for f in report.new_findings] == ["src/a.py", "src/z.py"]

    def test_unknown_rule_id_fails_loudly(self, tmp_path):
        import pytest

        from repro.errors import ReproError

        (tmp_path / "a.py").write_text("x = 1\n")
        with pytest.raises(ReproError):
            lint_paths([tmp_path], root=tmp_path, rules=["no-such-rule"])
