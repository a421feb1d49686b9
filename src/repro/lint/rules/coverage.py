"""Cross-check coverage: every registered engine or report name appears in a test.

The cross-check machinery (``cross_check=True`` re-running a reference
engine and raising on divergence) only proves anything for engines a test
actually exercises.  This rule pairs every ``<registry>.register(<name>)``
site in the linted sources with the string literals of the test tree: a
registered name no test ever mentions is an engine the equivalence suites
silently skip.

Registration names are resolved statically — a literal first argument or a
module-level string constant (``ENGINE_LEGACY = "legacy"``) both work.
The rule stays quiet when no test tree was provided (e.g. linting a
fixture directory), so it never produces vacuous findings.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

from repro.lint.base import FileContext, LintRule, ProjectContext, lint_rules
from repro.lint.findings import Finding


@dataclass(frozen=True)
class _Registration:
    registry: str
    name: str
    path: str
    line: int
    col: int


@lint_rules.register("engine-test-coverage")
class EngineTestCoverageRule(LintRule):
    """Registered engine names that no test references."""

    rule_id = "engine-test-coverage"
    description = (
        "every registered engine/strategy/scenario/report name must be referenced "
        "by at least one test, or the cross-check suites silently skip it"
    )

    #: Registries whose registrations must be test-covered.
    REGISTRIES = frozenset(
        {
            "removal_engines",
            "ordering_strategies",
            "synthesis_backends",
            "routing_engines",
            "simulation_engines",
            "traffic_scenarios",
            "topology_families",
            "fault_models",
            "recovery_policies",
            "report_types",
        }
    )

    def __init__(self) -> None:
        self._registrations: List[_Registration] = []

    # ------------------------------------------------------------------
    def _resolve_name(
        self, arg: ast.AST, constants: Dict[str, str]
    ) -> Optional[str]:
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.Name):
            return constants.get(arg.id)
        return None

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        constants: Dict[str, str] = {}
        for node in ctx.tree.body:
            if isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant):
                if isinstance(node.value.value, str):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            constants[target.id] = node.value.value
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "register"
                and isinstance(func.value, ast.Name)
                and func.value.id in self.REGISTRIES
                and node.args
            ):
                name = self._resolve_name(node.args[0], constants)
                if name is not None:
                    self._registrations.append(
                        _Registration(
                            registry=func.value.id,
                            name=name,
                            path=ctx.rel_path,
                            line=node.lineno,
                            col=node.col_offset,
                        )
                    )
        return ()

    # ------------------------------------------------------------------
    def finalize(self, project: ProjectContext) -> Iterable[Finding]:
        if not project.test_files or not self._registrations:
            return ()
        referenced: Set[str] = set()
        for ctx in project.test_files:
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.Constant) and isinstance(node.value, str):
                    referenced.add(node.value)
        findings: List[Finding] = []
        for registration in self._registrations:
            if registration.name in referenced:
                continue
            findings.append(
                Finding(
                    path=registration.path,
                    line=registration.line,
                    col=registration.col,
                    rule=self.rule_id,
                    message=(
                        f"registered {registration.registry} entry "
                        f"'{registration.name}' is not referenced by any "
                        "test; the cross-check suites never exercise it"
                    ),
                )
            )
        return findings
