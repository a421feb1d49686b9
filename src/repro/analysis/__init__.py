"""Experiment drivers and metrics used by the benchmark harness.

* :mod:`repro.analysis.metrics` — percentages, normalisation, text tables.
* :mod:`repro.analysis.experiments` — the three-way comparison (unprotected
  / deadlock removal / resource ordering) the paper's evaluation is built
  on; the figure-level sweeps over it are the report types of
  :mod:`repro.api.reports`.
"""

from repro.analysis.experiments import MethodComparison, compare_methods
from repro.analysis.metrics import geometric_mean, percent_change, percent_reduction

__all__ = [
    "MethodComparison",
    "compare_methods",
    "percent_change",
    "percent_reduction",
    "geometric_mean",
]
