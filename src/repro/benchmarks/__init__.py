"""SoC benchmark communication graphs.

The paper evaluates on six realistic SoC benchmarks (described in its
reference [21]): ``D26_media``, ``D36_4``, ``D36_6``, ``D36_8``,
``D35_bott`` and ``D38_tvopd``.  The original traffic tables are not public,
so this package provides seeded synthetic reconstructions that match the
published core counts and traffic structure (:mod:`repro.benchmarks.soc`
says what each one models), plus generic synthetic traffic generators for
tests and extra experiments.
"""

from repro.benchmarks.registry import BENCHMARK_NAMES, get_benchmark, list_benchmarks
from repro.benchmarks.soc import (
    d26_media,
    d35_bott,
    d36_4,
    d36_6,
    d36_8,
    d38_tvopd,
)
from repro.benchmarks.synthetic import (
    hotspot_traffic,
    neighbour_traffic,
    pipeline_traffic,
    uniform_random_traffic,
)

__all__ = [
    "d26_media",
    "d36_4",
    "d36_6",
    "d36_8",
    "d35_bott",
    "d38_tvopd",
    "get_benchmark",
    "list_benchmarks",
    "BENCHMARK_NAMES",
    "uniform_random_traffic",
    "hotspot_traffic",
    "neighbour_traffic",
    "pipeline_traffic",
]
