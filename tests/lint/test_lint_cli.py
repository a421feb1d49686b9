"""The ``noc-deadlock lint`` subcommand: formats and exit codes."""

import json
import textwrap

import pytest

from repro.cli import main


@pytest.fixture
def project(tmp_path, monkeypatch):
    """A minimal project with one det-wallclock finding; cwd moved into it."""
    src = tmp_path / "src"
    src.mkdir()
    (src / "stamp.py").write_text(
        textwrap.dedent(
            """
            import time

            def stamp():
                return time.time()
            """
        )
    )
    (src / "clean.py").write_text("x = 1\n")
    monkeypatch.chdir(tmp_path)
    return tmp_path


class TestHumanOutput:
    def test_new_finding_fails_and_is_rendered(self, project, capsys):
        assert main(["lint", "src"]) == 1
        captured = capsys.readouterr()
        assert "src/stamp.py:5" in captured.out
        assert "[det-wallclock]" in captured.out
        assert "1 finding(s)" in captured.err

    def test_clean_run_exits_zero(self, project, capsys):
        assert main(["lint", "src/clean.py"]) == 0
        assert "0 finding(s)" in capsys.readouterr().err

    def test_missing_baseline_file_is_an_empty_baseline(self, project):
        assert main(["lint", "src"]) == 1


class TestJsonOutput:
    def test_document_schema_and_exit_code(self, project, capsys):
        assert main(["lint", "src", "--format", "json"]) == 1
        document = json.loads(capsys.readouterr().out)
        assert document["ok"] is False
        assert document["checked_files"] == 2
        (finding,) = document["new_findings"]
        assert finding["rule"] == "det-wallclock"
        assert finding["path"] == "src/stamp.py"

    def test_rules_flag_restricts_the_run(self, project, capsys):
        assert (
            main(
                [
                    "lint",
                    "src",
                    "--format",
                    "json",
                    "--rules",
                    "det-set-order",
                ]
            )
            == 0
        )
        assert json.loads(capsys.readouterr().out)["ok"] is True

