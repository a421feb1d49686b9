"""Process-wide build/reuse counters of the indexed fast paths.

The benchmark scripts reset them before a measurement and read them after
it, so a change that silently falls back to rebuilding per call fails the
perf smoke instead of just getting slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class PerfCounters:
    """Build/reuse statistics of the removal and simulation fast paths.

    ``route_deltas`` counts route changes applied to a CDG index,
    ``cost_tables_indexed`` the cost tables the indexed engine built, and
    ``sim_template_*`` the compiled-simulation templates built and reused.
    """

    route_deltas: int = 0
    cost_tables_indexed: int = 0
    sim_template_builds: int = 0
    sim_template_reuses: int = 0

    def reset(self) -> None:
        """Zero every counter (one measurement window begins)."""
        for name in self.__dataclass_fields__:
            setattr(self, name, 0)

    def snapshot(self) -> Dict[str, int]:
        """Plain-dict copy of the current counts."""
        return {name: getattr(self, name) for name in self.__dataclass_fields__}


#: The counters every fast path adds to (reset via ``counters.reset()``).
counters = PerfCounters()
