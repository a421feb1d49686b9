"""Built-in lint rules — importing this module registers all of them.

This is the provider module of :data:`repro.lint.base.lint_rules`: the
registry imports it lazily on first lookup, exactly like the engine
registries import their providers.  Adding a rule means adding a module
here (or anywhere) that subclasses :class:`~repro.lint.base.LintRule` and
decorates it with ``@lint_rules.register("<rule-id>")``, then importing it
from this provider so the built-in set always loads together.
"""

from repro.lint.rules import (  # noqa: F401  (imported for registration)
    coverage,
    determinism,
    process_boundary,
    registry_discipline,
)
