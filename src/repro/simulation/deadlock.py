"""Runtime deadlock detection.

Two mechanisms, combined:

* a **no-progress watchdog** — if no flit has moved for a configurable
  number of cycles while flits are buffered inside the network, the run is
  stalled;
* a **wait-for-graph check** — the channels currently holding flits are
  connected to the channels their head-of-line flits need next; a directed
  cycle among those edges is a wormhole routing deadlock (the runtime
  manifestation of a CDG cycle).  A plain depth-first search finds it
  (:func:`find_wait_cycle`), in an order fixed by the edge list alone, so
  the reported channels repeat exactly from run to run.

The watchdog alone could confuse extreme congestion with deadlock; the
wait-for cycle makes the verdict exact, and reporting the channels on the
cycle makes the diagnosis actionable.

Every confirmed verdict is then checked against ground truth that no
engine computes: under deterministic routing a wormhole deadlock is a
cycle of channel dependencies (Dally & Seitz 1987), so the reported
channels must close a cycle of the simulated design's CDG
(:func:`check_cdg_witness`).  For a fault run that is the degraded design
the network holds at the verdict.  A verdict failing the check raises
:class:`~repro.errors.SimulationError` instead of being reported.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.core.cdg import build_cdg
from repro.core.cycles import verify_cycle
from repro.errors import SimulationError
from repro.model.channels import Channel
from repro.model.design import NocDesign
from repro.simulation.network import WormholeNetwork


def find_wait_cycle(network: WormholeNetwork) -> Optional[List[Channel]]:
    """A cycle in the channel wait-for graph, or None.

    Only channels that currently hold flits can take part: an empty channel
    never blocks anyone.  An iterative depth-first search visits the roots
    in order of first appearance in the wait-for edges and each channel's
    successors in edge order; a finished channel is never entered again.
    The first edge into a channel on the current path closes the cycle,
    which is returned from that channel to the edge's tail.
    """
    edges = network.wait_for_edges()
    if not edges:
        return None
    occupied = {edge[0] for edge in edges}
    successors: Dict[Channel, List[Channel]] = {}
    for src, dst in edges:
        if dst in occupied:
            successors.setdefault(src, []).append(dst)
            successors.setdefault(dst, [])
    finished = set()
    for root in successors:
        if root in finished:
            continue
        path = [root]
        on_path = {root}
        stack = [iter(successors[root])]
        while stack:
            for succ in stack[-1]:
                if succ in on_path:
                    return path[path.index(succ):]
                if succ not in finished:
                    path.append(succ)
                    on_path.add(succ)
                    stack.append(iter(successors[succ]))
                    break
            else:
                stack.pop()
                done = path.pop()
                on_path.discard(done)
                finished.add(done)
    return None


def check_cdg_witness(design: NocDesign, channels: Sequence[Channel]) -> None:
    """Raise :class:`SimulationError` unless ``channels`` close a cycle of the CDG.

    The CDG is built at most once per route set: it is cached on the
    design instance (``design._witness_cdg``) and rebuilt only when the
    routes change (fault recovery re-routing the private design copy).  A
    CDG's edges come from the routes alone, so the route set and its
    version are the whole cache key.
    """
    routes = design.routes
    cached = getattr(design, "_witness_cdg", None)
    if cached is None or cached[0] is not routes or cached[1] != routes.version:
        cached = (routes, routes.version, build_cdg(design))
        design._witness_cdg = cached
    if not verify_cycle(cached[2], channels):
        shown = ", ".join(str(channel) for channel in list(channels)[:4])
        more = "" if len(channels) <= 4 else f", ... ({len(channels)} channels)"
        raise SimulationError(
            f"deadlock witness failed on design {design.name!r}: the reported "
            f"wait cycle [{shown}{more}] is not a cycle of the simulated "
            "design's channel dependency graph"
        )


class DeadlockMonitor:
    """Tracks progress and decides when the network is deadlocked.

    Parameters
    ----------
    watchdog_cycles:
        Number of consecutive cycles without any flit movement (while flits
        are buffered in the network) after which the wait-for graph is
        examined.
    """

    def __init__(self, watchdog_cycles: int = 200):
        self.watchdog_cycles = watchdog_cycles
        self._idle_cycles = 0

    def record_cycle(self, network: WormholeNetwork, transfers: int) -> Optional[List[Channel]]:
        """Update the watchdog after one cycle.

        Returns the list of channels on a wait-for cycle when a deadlock is
        confirmed, otherwise ``None``.  Every engine's verdicts pass through
        here, so this is where :func:`check_cdg_witness` checks them.
        """
        if transfers > 0 or network.flits_in_network() == 0:
            self._idle_cycles = 0
            return None
        self._idle_cycles += 1
        if self._idle_cycles < self.watchdog_cycles:
            return None
        cycle = find_wait_cycle(network)
        if cycle is None:
            # Stalled but no cyclic wait (e.g. the injection process simply
            # stopped); reset so the watchdog can trip again later.
            self._idle_cycles = 0
            return None
        check_cdg_witness(network.design, cycle)
        return cycle

    @property
    def idle_cycles(self) -> int:
        """Consecutive cycles without progress seen so far."""
        return self._idle_cycles
