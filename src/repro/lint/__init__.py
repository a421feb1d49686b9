"""``noc-lint``: AST-based invariant checking for this repository.

The reproduction's correctness rests on invariants that runtime
cross-checks can only sample: determinism (all randomness flows from
``RunSpec.seed``), registry discipline (engines are resolved by name,
never constructed ad hoc), process-boundary safety (only plain spec data
crosses ``parallel_map``) and cross-check coverage (every registered
engine appears in a test).  This package checks them
*statically*, before any test runs, and gates CI through the
``noc-deadlock lint`` subcommand.

Rule API
--------
A rule subclasses :class:`~repro.lint.base.LintRule` and registers itself
in :data:`~repro.lint.base.lint_rules` (the same decorator registry the
engines use)::

    from repro.lint.base import FileContext, LintRule, lint_rules

    @lint_rules.register("my-rule")
    class MyRule(LintRule):
        rule_id = "my-rule"
        description = "one line on the invariant this protects"

        def check_file(self, ctx: FileContext):
            for node in ast.walk(ctx.tree):
                ...
                yield ctx.finding(node, self.rule_id, "what went wrong")

* :meth:`~repro.lint.base.LintRule.check_file` receives one parsed
  :class:`~repro.lint.base.FileContext` (path, source, lines, AST, dotted
  module name) per linted file and yields
  :class:`~repro.lint.findings.Finding` records;
* :meth:`~repro.lint.base.LintRule.finalize` runs once after all files,
  receiving the :class:`~repro.lint.base.ProjectContext` — including the
  parsed (never linted) test tree — for whole-project rules;
* built-in rules live in :mod:`repro.lint.rules`, the registry's lazy
  provider; new modules register there.

Workflow
--------
* **run**: ``noc-deadlock lint [paths]`` (default ``src``) prints findings
  and exits non-zero when any finding is not suppressed; ``--format json``
  emits the machine-readable document CI consumes.
* **suppress**: a justified exception carries an inline same-line comment
  ``# noc-lint: disable=<rule-id> - <why>``; suppressions are visible at
  the offending line, never file- or block-wide.  Nothing else excuses a
  finding: there is no baseline of grandfathered ones.
"""

from repro.lint.base import FileContext, LintRule, ProjectContext, lint_rules
from repro.lint.engine import LintReport, lint_paths
from repro.lint.findings import FINDING_KEYS, Finding, structured_warning

__all__ = [
    "FINDING_KEYS",
    "FileContext",
    "Finding",
    "LintReport",
    "LintRule",
    "ProjectContext",
    "lint_paths",
    "lint_rules",
    "structured_warning",
]
