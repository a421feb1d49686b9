"""The paper's contribution: CDG-based minimal-VC deadlock removal.

* :mod:`repro.core.cdg` — the Channel Dependency Graph (Definition 4).
* :mod:`repro.core.cycles` — cycle detection (smallest cycle first, as in
  Step 3/13 of Algorithm 1, plus full enumeration for analysis, capped at
  :data:`CYCLE_COUNT_CAP` cycles where a report counts them).
* :mod:`repro.core.cost` — the forward/backward cost tables of Algorithm 2
  (Table 1 of the paper).
* :mod:`repro.core.breaker` — ``BreakCycleForward`` / ``BreakCycleBackward``
  as one ``break_cycle`` with a direction.
* :mod:`repro.core.removal` — the outer loop (Algorithm 1).
"""

from repro.core.cdg import ChannelDependencyGraph, build_cdg
from repro.core.cost import CostTable, build_cost_table, find_dependency_to_break
from repro.core.cycles import (
    CYCLE_COUNT_CAP,
    find_all_cycles,
    find_smallest_cycle,
    has_cycle,
)
from repro.core.removal import DeadlockRemover, remove_deadlocks
from repro.core.report import BreakAction, RemovalResult

__all__ = [
    "ChannelDependencyGraph",
    "build_cdg",
    "find_smallest_cycle",
    "find_all_cycles",
    "has_cycle",
    "CYCLE_COUNT_CAP",
    "CostTable",
    "build_cost_table",
    "find_dependency_to_break",
    "DeadlockRemover",
    "remove_deadlocks",
    "RemovalResult",
    "BreakAction",
]
