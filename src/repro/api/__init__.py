"""repro.api — the declarative experiment facade.

One coherent surface over the whole evaluation stack:

* :class:`RunSpec` / :class:`ExperimentPlan` — declarative descriptions of
  evaluation points and plans, JSON round-trippable (:mod:`repro.api.spec`);
* :data:`removal_engines` / :data:`ordering_strategies` /
  :data:`routing_engines` / :data:`simulation_engines` /
  :data:`traffic_scenarios` — pluggable strategy registries with decorator
  registration (:mod:`repro.api.registry`);
* :class:`Runner` / :func:`run_plan` — plan execution over the process-pool
  executor with a content-addressed artifact cache
  (:mod:`repro.api.runner`, :mod:`repro.api.cache`);
* :class:`RunResult` — the one JSON record schema shared by tables,
  figures and the CLI (:mod:`repro.api.result`);
* :data:`report_types` / :func:`run_report` — figure/table formatters
  (:mod:`repro.api.reports`).

Example::

    from repro.api import ExperimentPlan, Runner

    plan = ExperimentPlan.from_grid("sweep", "D36_8", [10, 14, 18])
    outcome = Runner(cache_dir="~/.cache/noc-deadlock", jobs=-1).run(plan)
    for result in outcome.results:
        print(result.as_row())

The light declarative pieces (specs, registries, cache, results) import
eagerly; the execution layer (runner, reports) loads lazily on first
attribute access so that ``repro.core``/``repro.routing`` can import the
registries without a circular import.
"""

from __future__ import annotations

from repro.api.cache import ArtifactCache
from repro.api.registry import (
    Registry,
    ordering_strategies,
    removal_engines,
    routing_engines,
    simulation_engines,
    traffic_scenarios,
)
from repro.api.result import RESULT_FORMAT_VERSION, RunResult
from repro.api.spec import (
    PLAN_FORMAT_VERSION,
    ExperimentPlan,
    ReportRequest,
    RunSpec,
    expand_run_entry,
)

#: Lazily imported names -> providing submodule (PEP 562).  These modules
#: pull in the full algorithm stack, which itself imports the registries
#: above — loading them on first access keeps the import graph acyclic.
_LAZY = {
    "Runner": "repro.api.runner",
    "PlanResult": "repro.api.runner",
    "run_plan": "repro.api.runner",
    "execute_spec": "repro.api.runner",
    "default_cache_dir": "repro.api.runner",
    "report_types": "repro.api.reports",
    "run_report": "repro.api.reports",
    "ReportType": "repro.api.reports",
    "FIGURE8_SWITCH_COUNTS": "repro.api.reports",
    "FIGURE9_SWITCH_COUNTS": "repro.api.reports",
    "FIGURE10_BENCHMARKS": "repro.api.reports",
    "FIGURE10_SWITCH_COUNT": "repro.api.reports",
}

__all__ = [
    "ArtifactCache",
    "ExperimentPlan",
    "PlanResult",
    "Registry",
    "ReportRequest",
    "ReportType",
    "RunResult",
    "RunSpec",
    "Runner",
    "PLAN_FORMAT_VERSION",
    "RESULT_FORMAT_VERSION",
    "default_cache_dir",
    "execute_spec",
    "expand_run_entry",
    "ordering_strategies",
    "removal_engines",
    "report_types",
    "routing_engines",
    "run_plan",
    "run_report",
    "simulation_engines",
    "traffic_scenarios",
]


def __getattr__(name: str):
    module_path = _LAZY.get(name)
    if module_path is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_path)
    value = getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
