"""Cycle detection in the channel dependency graph.

The paper (Section 4) runs a breadth-first search from every vertex of the
CDG; whenever the start vertex is reached again a cycle has been found, and
``GetSmallestCycle`` returns the shortest one.  We implement exactly that
(deterministically: vertices and successors are visited in sorted order) and
additionally expose a full cycle enumeration based on Johnson's algorithm
(via :func:`networkx.simple_cycles`) which the analysis and test code use.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx

from repro.core.cdg import ChannelDependencyGraph
from repro.errors import CycleSearchError
from repro.model.channels import Channel


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


def find_all_cycles(
    cdg: ChannelDependencyGraph, limit: Optional[int] = None
) -> List[List[Channel]]:
    """Enumerate elementary cycles of the CDG (Johnson's algorithm).

    Parameters
    ----------
    limit:
        Stop after this many cycles; dense CDGs can have exponentially many
        elementary cycles and analyses usually only need a count or a
        sample.
    """
    graph = cdg.to_networkx()
    cycles: List[List[Channel]] = []
    for cycle in nx.simple_cycles(graph):
        cycles.append(list(cycle))
        if limit is not None and len(cycles) >= limit:
            break
    cycles.sort(key=lambda cyc: (len(cyc), [c.name for c in cyc]))
    return cycles


def count_cycles(cdg: ChannelDependencyGraph, limit: Optional[int] = 10000) -> int:
    """Number of elementary cycles (capped at ``limit``).

    The count is independent of enumeration order, so the graph is relabelled
    to dense integers first: Johnson's algorithm then hashes small ints
    instead of nested ``Channel`` dataclasses, which is several times faster
    on the dense CDGs the removal loop counts.
    """
    if limit is not None and limit <= 0:
        return 0
    graph = nx.convert_node_labels_to_integers(cdg.to_networkx())
    count = 0
    for _ in nx.simple_cycles(graph):
        count += 1
        if limit is not None and count >= limit:
            break
    return count


def find_largest_cycle(cdg: ChannelDependencyGraph, limit: Optional[int] = 10000) -> Optional[List[Channel]]:
    """The longest elementary cycle (used by the ablation study).

    Takes the maximum over the raw enumeration instead of sorting all
    cycles first; ties between equally long cycles are still broken by the
    lexicographically smallest channel-name sequence, so the result is the
    same cycle :func:`find_all_cycles` followed by ``max(key=len)`` returned.
    """
    graph = cdg.to_networkx()
    best: Optional[List[Channel]] = None
    best_names: Optional[List[str]] = None
    seen = 0
    for cycle in nx.simple_cycles(graph):
        seen += 1
        if best is None or len(cycle) > len(best):
            best = list(cycle)
            best_names = None
        elif len(cycle) == len(best):
            names = [c.name for c in cycle]
            if best_names is None:
                best_names = [c.name for c in best]
            if names < best_names:
                best = list(cycle)
                best_names = names
        if limit is not None and seen >= limit:
            break
    return best


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
