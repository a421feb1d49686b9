"""Cycle detection in the channel dependency graph.

The paper (Section 4) runs a breadth-first search from every vertex of the
CDG; whenever the start vertex is reached again a cycle has been found, and
``GetSmallestCycle`` returns the shortest one.  We implement exactly that
(deterministically: vertices and successors are visited in sorted order) and
additionally expose a full cycle enumeration based on Johnson's algorithm
(:func:`repro.perf.cycle_search.simple_cycles`, over channel ids in sorted
order) and the package's one capped cycle count, :func:`count_cycles`.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.core.cdg import ChannelDependencyGraph
from repro.errors import CycleSearchError
from repro.model.channels import Channel

#: How many elementary cycles ``noc-deadlock analyze`` counts before
#: stopping: dense CDGs have exponentially many.  A count that reaches it is
#: a lower bound (:func:`format_cycle_count`).  Removal counts only when it
#: fails to converge, capped at 100.
CYCLE_COUNT_CAP = 2000


def has_cycle(cdg: ChannelDependencyGraph) -> bool:
    """True when the CDG contains at least one directed cycle."""
    return not cdg.is_acyclic()


def _shortest_cycle_through(cdg: ChannelDependencyGraph, start: Channel) -> Optional[List[Channel]]:
    """Shortest cycle that passes through ``start`` (BFS), or None.

    The BFS explores successors of ``start``; the first time an edge back to
    ``start`` is seen, the path from ``start`` to that predecessor plus the
    closing edge is a shortest cycle through ``start``.
    """
    parent: Dict[Channel, Optional[Channel]] = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for succ in cdg.successors(node):
            if succ == start:
                # Found the closing edge node -> start; reconstruct.
                cycle = [node]
                current = node
                while parent[current] is not None:
                    current = parent[current]
                    cycle.append(current)
                cycle.reverse()
                return cycle
            if succ not in parent:
                parent[succ] = node
                queue.append(succ)
    return None


def find_smallest_cycle(cdg: ChannelDependencyGraph) -> Optional[List[Channel]]:
    """``GetSmallestCycle`` from Algorithm 1.

    Returns the vertices of the smallest cycle as an ordered list
    ``[c1, ..., cj]`` such that the CDG has edges ``c1->c2``, ...,
    ``c(j-1)->cj`` and the closing edge ``cj->c1``.  Returns ``None`` when
    the CDG is acyclic.  Ties are broken deterministically by the sorted
    order of the starting channel.
    """
    best: Optional[List[Channel]] = None
    for start in cdg.channels:
        cycle = _shortest_cycle_through(cdg, start)
        if cycle is None:
            continue
        if best is None or len(cycle) < len(best):
            best = cycle
            # A CDG dependency always connects two distinct channels (links
            # forbid src == dst, and add_dependency rejects self-loops), so
            # no cycle can be shorter than 2 — stop searching on a 2-cycle.
            if len(best) == 2:
                break
    return best


def _enumerate(cdg: ChannelDependencyGraph) -> Tuple[List[Channel], Iterator[Tuple[int, ...]]]:
    """The CDG's channels (sorted) and its elementary cycles as index tuples."""
    # Local import: repro.perf imports repro.core.cost, which imports this module.
    from repro.perf.cycle_search import simple_cycles

    channels = cdg.channels
    ids = {channel: i for i, channel in enumerate(channels)}
    successors = [[ids[succ] for succ in cdg.successors(channel)] for channel in channels]
    return channels, simple_cycles(range(len(channels)), successors.__getitem__)


def find_all_cycles(
    cdg: ChannelDependencyGraph, limit: Optional[int] = None
) -> List[List[Channel]]:
    """Enumerate elementary cycles of the CDG (Johnson's algorithm).

    Each cycle starts at its smallest channel, and the enumeration order
    depends only on the CDG, so a capped list is the same in every process.

    Parameters
    ----------
    limit:
        Stop after this many cycles; dense CDGs can have exponentially many
        elementary cycles and analyses usually only need a count or a
        sample.
    """
    channels, cycles = _enumerate(cdg)
    found = [[channels[i] for i in cycle] for cycle in islice(cycles, limit)]
    found.sort(key=lambda cyc: (len(cyc), [c.name for c in cyc]))
    return found


def count_cycles(cdg: ChannelDependencyGraph, limit: Optional[int] = 10000) -> int:
    """Number of elementary cycles (capped at ``limit``).

    A capped count does not depend on the enumeration order.  With
    ``limit=1`` it is Kahn's acyclicity test, which enumerates nothing.
    """
    if limit is not None and limit <= 0:
        return 0
    if limit == 1:
        return 0 if cdg.is_acyclic() else 1
    return sum(1 for _ in islice(_enumerate(cdg)[1], limit))


def format_cycle_count(count: int) -> str:
    """A count capped at :data:`CYCLE_COUNT_CAP`, for a report: ``at least N`` at the cap."""
    return f"at least {count}" if count >= CYCLE_COUNT_CAP else str(count)


def cycle_edges(cycle: Sequence[Channel]) -> List[Tuple[Channel, Channel]]:
    """The dependency edges of a cycle, including the closing edge."""
    cycle = list(cycle)
    if not cycle:
        raise CycleSearchError("cannot compute edges of an empty cycle")
    edges = list(zip(cycle, cycle[1:]))
    edges.append((cycle[-1], cycle[0]))
    return edges


def verify_cycle(cdg: ChannelDependencyGraph, cycle: Sequence[Channel]) -> bool:
    """True when every edge of ``cycle`` (including the closing one) is in the CDG."""
    if not cycle:
        return False
    return all(cdg.has_dependency(a, b) for a, b in cycle_edges(cycle))
