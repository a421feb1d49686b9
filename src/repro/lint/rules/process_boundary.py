"""Process-boundary safety: only plain data crosses ``parallel_map``.

The sweep executor pickles the callable and every work item into pool
workers.  The repo's contract (enforced at every existing call site by
hand until now) is that work items are *plain spec data* — dicts, strings,
numbers, tuples thereof — never live designs, contexts or engine objects:
those drag megabytes through pickle, tie workers to parent state, and
break the "workers resolve everything by registry name" rule that keeps
the cache coherent.

The rule inspects every ``parallel_map(func, items, ...)`` call site:

* ``func`` must be a named module-level callable (or ``functools.partial``
  over one) — lambdas and comprehension-local closures cannot pickle;
* when ``items`` is statically visible (a literal, a comprehension, or a
  name assigned one in the same file), each element expression is checked:
  constructor calls (a Capitalized callable) and lambdas are flagged,
  conversion calls like ``.to_dict()`` and plain names/constants pass.

A bare ``items`` name the rule cannot resolve is accepted — this is a
heuristic pass, not a type system.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional

from repro.lint.base import FileContext, LintRule, lint_rules
from repro.lint.findings import Finding

#: Calls allowed inside a work-item expression: plain-data conversions.
_PLAIN_CALLS = frozenset(
    {
        "to_dict",
        "asdict",
        "fingerprint",
        "dict",
        "list",
        "tuple",
        "sorted",
        "str",
        "int",
        "float",
        "range",
        "zip",
    }
)


def _call_name(func: ast.AST) -> Optional[str]:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


@lint_rules.register("process-boundary")
class ProcessBoundaryRule(LintRule):
    """Non-plain-data arguments to ``parallel_map``."""

    rule_id = "process-boundary"
    description = (
        "only plain spec data may cross the parallel_map process boundary; "
        "convert objects with .to_dict() and rebuild them in the worker"
    )

    # ------------------------------------------------------------------
    def _assignments(self, tree: ast.Module) -> Dict[str, ast.AST]:
        """Every simple ``name = expr`` in the file (last one wins)."""
        assigns: Dict[str, ast.AST] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigns[target.id] = node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                if isinstance(node.target, ast.Name):
                    assigns[node.target.id] = node.value
        return assigns

    def _element_exprs(
        self, items: ast.AST, assigns: Dict[str, ast.AST]
    ) -> List[ast.AST]:
        """The per-item expressions of ``items``, when statically visible."""
        if isinstance(items, ast.Name):
            resolved = assigns.get(items.id)
            if resolved is None or isinstance(resolved, ast.Name):
                return []
            items = resolved
        if isinstance(items, (ast.List, ast.Tuple)):
            return list(items.elts)
        if isinstance(items, (ast.ListComp, ast.GeneratorExp)):
            return [items.elt]
        return []

    def _flag_non_plain(
        self, ctx: FileContext, element: ast.AST, findings: List[Finding]
    ) -> None:
        for node in ast.walk(element):
            if isinstance(node, ast.Lambda):
                findings.append(
                    ctx.finding(
                        node,
                        self.rule_id,
                        "a lambda inside a parallel_map work item cannot "
                        "cross the process boundary",
                    )
                )
            elif isinstance(node, ast.Call):
                name = _call_name(node.func)
                if name and name[:1].isupper() and name not in _PLAIN_CALLS:
                    findings.append(
                        ctx.finding(
                            node,
                            self.rule_id,
                            f"work item constructs '{name}(...)'; only plain "
                            "spec data may cross the parallel_map process "
                            "boundary — ship a dict (e.g. .to_dict()) and "
                            "rebuild in the worker",
                        )
                    )

    # ------------------------------------------------------------------
    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        findings: List[Finding] = []
        assigns = self._assignments(ctx.tree)
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _call_name(node.func) != "parallel_map" or not node.args:
                continue
            func_arg = node.args[0]
            if isinstance(func_arg, ast.Lambda):
                findings.append(
                    ctx.finding(
                        func_arg,
                        self.rule_id,
                        "parallel_map callable is a lambda, which cannot "
                        "pickle into pool workers; use a module-level "
                        "function",
                    )
                )
            if len(node.args) > 1:
                for element in self._element_exprs(node.args[1], assigns):
                    self._flag_non_plain(ctx, element, findings)
        return findings
