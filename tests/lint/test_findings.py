"""The Finding schema and the shared structured-warning payload."""

import json
import re

from repro.lint.findings import (
    FINDING_KEYS,
    FINDINGS_FORMAT_VERSION,
    Finding,
    structured_warning,
)


class TestFinding:
    def test_dict_round_trip(self):
        finding = Finding(path="src/a.py", line=3, rule="det-wallclock", message="m", col=7)
        assert Finding.from_dict(finding.to_dict()) == finding

    def test_to_dict_uses_exactly_the_schema_keys(self):
        finding = Finding(path="src/a.py", line=3, rule="r", message="m")
        assert tuple(sorted(finding.to_dict())) == tuple(sorted(FINDING_KEYS))

    def test_render_is_path_line_col_rule_message(self):
        finding = Finding(path="src/a.py", line=3, rule="det-wallclock", message="boom", col=7)
        assert finding.render() == "src/a.py:3:7: [det-wallclock] boom"

    def test_orders_by_path_then_line(self):
        unsorted = [
            Finding(path="src/b.py", line=1, rule="r", message="m"),
            Finding(path="src/a.py", line=9, rule="r", message="m"),
            Finding(path="src/a.py", line=2, rule="r", message="m"),
        ]
        ordered = sorted(unsorted)
        assert [(f.path, f.line) for f in ordered] == [
            ("src/a.py", 2),
            ("src/a.py", 9),
            ("src/b.py", 1),
        ]


class TestStructuredWarning:
    def test_payload_parses_and_matches_finding_schema(self):
        text = structured_warning("process-boundary", "work is not picklable")
        match = re.search(r"\[noc-lint (\{.*\})\]$", text)
        assert match, text
        payload = json.loads(match.group(1))
        assert set(payload) == set(FINDING_KEYS)
        assert payload["rule"] == "process-boundary"
        assert payload["message"] == "work is not picklable"

    def test_prose_is_preserved_verbatim_as_prefix(self):
        text = structured_warning("r", "human readable part")
        assert text.startswith("human readable part [noc-lint ")

    def test_format_version_is_stable(self):
        assert FINDINGS_FORMAT_VERSION == 1
