"""Simulation statistics."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.model.channels import Channel


@dataclass
class SimulationStats:
    """Counters and derived metrics collected by one simulation run."""

    design_name: str
    cycles_run: int = 0
    packets_injected: int = 0
    packets_delivered: int = 0
    flits_delivered: int = 0
    flit_transfers: int = 0
    local_deliveries: int = 0
    latencies: List[int] = field(default_factory=list)
    channel_busy_cycles: Dict[Channel, int] = field(default_factory=dict)
    deadlock_cycle: Optional[int] = None
    deadlocked_channels: List[Channel] = field(default_factory=list)
    # --- resilience metrics (all stay at their defaults in fault-free
    # runs, so healthy statistics compare identically to older records) ---
    #: Fault events actually applied during the run (events scheduled past
    #: the end of the simulation are never consumed).
    fault_events_applied: int = 0
    #: Packets dropped by recovery (in-flight on a re-routed/unroutable
    #: flow) or lost at injection (flow unroutable in the degraded topology).
    packets_lost: int = 0
    #: Flits belonging to lost packets (undelivered at the time of loss).
    flits_lost: int = 0
    #: Flow reroute events: flows whose route changed (or vanished) across
    #: a fault batch, summed over all applied batches.
    flows_rerouted: int = 0
    #: Per applied fault batch: cycles until every packet that was in
    #: flight when the batch hit had left the network (-1 = never did
    #: before the run ended).
    recovery_cycles: List[int] = field(default_factory=list)
    #: AND over all applied batches of "the degraded CDG is acyclic after
    #: recovery"; ``None`` when no batch was applied.
    post_fault_deadlock_free: Optional[bool] = None

    @property
    def deadlock_detected(self) -> bool:
        """True when the run ended in (or detected) a deadlock."""
        return self.deadlock_cycle is not None

    @property
    def batches_never_drained(self) -> int:
        """Fault batches whose surviving in-flight packets never left.

        Counts the ``-1`` sentinels in :attr:`recovery_cycles`.  Derived
        (not a dataclass field) so the cross-check field comparison and
        cached result records keep their exact historical shape.
        """
        return sum(1 for cycles in self.recovery_cycles if cycles < 0)

    @property
    def packets_in_flight(self) -> int:
        """Packets injected but not delivered when the run stopped."""
        return self.packets_injected - self.packets_delivered

    @property
    def average_latency(self) -> float:
        """Mean packet latency in cycles (0 when nothing was delivered)."""
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    @property
    def max_latency(self) -> int:
        """Worst packet latency in cycles (0 when nothing was delivered)."""
        return max(self.latencies) if self.latencies else 0

    @property
    def throughput_flits_per_cycle(self) -> float:
        """Delivered flits per simulated cycle."""
        if self.cycles_run == 0:
            return 0.0
        return self.flits_delivered / self.cycles_run

    def summary(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"Simulation of {self.design_name!r} ({self.cycles_run} cycles)",
            f"  packets injected  : {self.packets_injected}",
            f"  packets delivered : {self.packets_delivered}",
            f"  average latency   : {self.average_latency:.1f} cycles",
            f"  throughput        : {self.throughput_flits_per_cycle:.3f} flits/cycle",
        ]
        if self.fault_events_applied:
            recovered = [c for c in self.recovery_cycles if c >= 0]
            mean_recovery = (
                sum(recovered) / len(recovered) if recovered else 0.0
            )
            lines.extend(
                [
                    f"  fault events      : {self.fault_events_applied}",
                    f"  packets lost      : {self.packets_lost} "
                    f"({self.flits_lost} flits)",
                    f"  flows rerouted    : {self.flows_rerouted}",
                    f"  mean recovery     : {mean_recovery:.1f} cycles "
                    f"({len(recovered)}/{len(self.recovery_cycles)} batches drained)",
                    f"  post-fault CDG    : "
                    f"{'acyclic' if self.post_fault_deadlock_free else 'CYCLIC'}",
                ]
            )
        if self.deadlock_detected:
            lines.append(
                f"  DEADLOCK at cycle {self.deadlock_cycle} "
                f"({len(self.deadlocked_channels)} channels in cyclic wait)"
            )
        return "\n".join(lines)
