"""Result records produced by the deadlock-removal algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.cost import CostTable
from repro.model.channels import Channel
from repro.model.design import NocDesign
from repro.model.routes import Route


@dataclass
class BreakAction:
    """One iteration of Algorithm 1: a cycle was broken.

    Attributes
    ----------
    iteration:
        1-based index of the removal iteration.
    direction:
        ``"forward"`` or ``"backward"`` — which break procedure was applied.
    cycle:
        The cycle that was broken (ordered channel list).
    broken_edge:
        The dependency that was removed.
    cost:
        Combined cost from the cost table — equals the number of channels
        that were duplicated.
    flows_rerouted:
        Names of the flows whose routes were moved onto the new channels.
    channels_added:
        Mapping original channel -> newly added channel (same physical link,
        fresh VC index).
    cost_table:
        The full cost table of the chosen direction, for reporting.
    previous_routes:
        The routes of the rerouted flows *before* this break.  Together with
        the flows' current routes this is the exact route delta of the break,
        which the incremental CDG engine (:mod:`repro.perf.cdg_index`)
        applies instead of rebuilding the graph.  Excluded from equality so
        that action sequences compare on what was broken, not on bookkeeping.
    """

    iteration: int
    direction: str
    cycle: Tuple[Channel, ...]
    broken_edge: Tuple[Channel, Channel]
    cost: int
    flows_rerouted: Tuple[str, ...]
    channels_added: Dict[Channel, Channel]
    cost_table: Optional[CostTable] = None
    previous_routes: Optional[Dict[str, Route]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def added_vc_count(self) -> int:
        """Number of virtual channels added by this action."""
        return len(self.channels_added)

    def describe(self) -> str:
        """One-line human-readable description."""
        edge = f"{self.broken_edge[0].name} -> {self.broken_edge[1].name}"
        return (
            f"iteration {self.iteration}: broke {edge} ({self.direction}, "
            f"cost {self.cost}), rerouted {len(self.flows_rerouted)} flow(s), "
            f"added {self.added_vc_count} VC(s)"
        )


@dataclass
class RemovalResult:
    """Outcome of running Algorithm 1 on a design.

    The headline number is :attr:`added_vc_count` — the quantity plotted in
    Figures 8 and 9 of the paper for the "Deadlock removal alg." series.

    The ``initial_*`` fields are the exact cycle structure of the CDG
    before removal, from one Tarjan pass: its cyclic strongly connected
    components, the channel count of the largest one, and the channels
    that lie on some cycle.  Elementary cycles are not counted.
    """

    design: NocDesign
    actions: List[BreakAction] = field(default_factory=list)
    initial_cyclic_sccs: int = 0
    initial_largest_scc: int = 0
    initial_cyclic_channels: int = 0
    iterations: int = 0
    runtime_seconds: float = 0.0

    @property
    def added_vc_count(self) -> int:
        """Total number of VCs added over all break actions."""
        return sum(action.added_vc_count for action in self.actions)

    @property
    def initially_deadlock_free(self) -> bool:
        """True when the CDG had no cycle before removal: no cyclic SCC."""
        return self.initial_cyclic_sccs == 0

    @property
    def rerouted_flows(self) -> List[str]:
        """All flows whose route changed at least once, sorted."""
        names = set()
        for action in self.actions:
            names.update(action.flows_rerouted)
        return sorted(names)

    @property
    def is_deadlock_free(self) -> bool:
        """True — the algorithm only returns once the CDG is acyclic.

        Kept as an explicit property so that callers reading a serialized
        report do not need to re-run the analysis.
        """
        return True

    def summary(self) -> str:
        """Multi-line human-readable report."""
        if self.initially_deadlock_free:
            structure = "already deadlock free"
        else:
            structure = (
                f"largest {self.initial_largest_scc} channels, "
                f"{self.initial_cyclic_channels} channels on cycles"
            )
        lines = [
            f"Deadlock removal report for design {self.design.name!r}",
            f"  initial cyclic SCCs     : {self.initial_cyclic_sccs} ({structure})",
            f"  iterations              : {self.iterations}",
            f"  virtual channels added  : {self.added_vc_count}",
            f"  flows rerouted          : {len(self.rerouted_flows)}",
            f"  runtime                 : {self.runtime_seconds:.3f} s",
        ]
        for action in self.actions:
            lines.append("  - " + action.describe())
        return "\n".join(lines)
