"""Experiment drivers and metrics used by the benchmark harness.

* :mod:`repro.analysis.metrics` — percentages, means, saturation verdicts,
  text tables.
* :mod:`repro.analysis.experiments` — the three-way comparison (unprotected
  / deadlock removal / resource ordering) the paper's evaluation is built
  on: :func:`compare_methods` turns one spec into its :class:`CostBundle`;
  the figure-level sweeps over it are the report types of
  :mod:`repro.api.reports`.
"""

from repro.analysis.experiments import CostBundle, compare_methods
from repro.analysis.metrics import percent_reduction

__all__ = [
    "CostBundle",
    "compare_methods",
    "percent_reduction",
]
