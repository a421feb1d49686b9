"""Indexed smallest-cycle search with SCC pruning and dirty-region caching.

``GetSmallestCycle`` in the seed implementation BFS-searches from *every*
vertex of the CDG on *every* removal iteration.  Three observations make the
search incremental without changing a single returned cycle:

1. **SCC pruning** — a cycle through ``v`` lies entirely inside ``v``'s
   strongly connected component: every vertex on a path from ``v`` back to
   ``v`` both reaches and is reached from ``v``.  Vertices in trivial SCCs
   (the Kahn-peelable part of the graph) can never yield a cycle, so BFS
   only needs to run from vertices of non-trivial SCCs, restricted to their
   own component.  The same argument shows a BFS tree rooted inside an SCC
   never leaves it, so the restricted BFS discovers the exact same parent
   pointers — and therefore the exact same cycle — as the full-graph BFS.

2. **Per-SCC decomposition of the tie-break** — the seed loop keeps the
   first start vertex (in channel sort order) achieving the minimal cycle
   length.  Because SCCs partition the vertices, that winner is the best
   vertex of the SCC with the lexicographically smallest
   ``(cycle length, start key)`` pair.

3. **Dirty-region reuse** — a break only re-routes a few flows, so most
   SCCs survive an iteration with identical membership and untouched
   adjacency.  Their cached ``(length, start, cycle)`` result is still
   exact; only components containing a *dirty* vertex (adjacency changed
   since the last search, tracked by :class:`~repro.perf.cdg_index.CDGIndex`)
   are re-searched.

The module also holds the one elementary-cycle enumerator of the package,
:func:`simple_cycles` (Johnson 1975), which the capped cycle counts and the
``largest``/``random`` ablation selections of :mod:`repro.core.cycles` run.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Dict, FrozenSet, Iterable, Iterator, List, NamedTuple, Optional, Tuple

from repro.perf.cdg_index import CDGIndex, ChannelKey
from repro.model.channels import Channel


class SccCycleEntry(NamedTuple):
    """Cached smallest-cycle result for one strongly connected component."""

    length: int
    start_key: ChannelKey
    cycle: Tuple[int, ...]


def tarjan_sccs(vertices: Iterable[int], successors) -> List[List[int]]:
    """Iterative Tarjan strongly-connected components over int vertices.

    ``successors(v)`` must yield the out-neighbours of ``v``.  Components are
    returned as lists of vertex ids; membership (all that matters here) is
    independent of traversal order.
    """
    index_of: Dict[int, int] = {}
    lowlink: Dict[int, int] = {}
    on_stack = set()
    stack: List[int] = []
    sccs: List[List[int]] = []
    counter = 0
    for root in vertices:
        if root in index_of:
            continue
        index_of[root] = lowlink[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, children = work[-1]
            pushed = False
            for child in children:
                if child not in index_of:
                    index_of[child] = lowlink[child] = counter
                    counter += 1
                    stack.append(child)
                    on_stack.add(child)
                    work.append((child, iter(successors(child))))
                    pushed = True
                    break
                if child in on_stack and index_of[child] < lowlink[node]:
                    lowlink[node] = index_of[child]
            if pushed:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                if lowlink[node] < lowlink[parent]:
                    lowlink[parent] = lowlink[node]
            if lowlink[node] == index_of[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                sccs.append(component)
    return sccs


class IncrementalCycleSearch:
    """Smallest-cycle search over a :class:`CDGIndex` with per-SCC caching.

    One instance lives for one removal run; call :meth:`find_smallest` once
    per iteration, after applying the iteration's route deltas to the index.
    Results are identical to
    :func:`repro.core.cycles.find_smallest_cycle` on a freshly rebuilt CDG.

    Every BFS after the first hit of a component is bounded to the depth
    at which a *strictly shorter* cycle could still exist.  The seed
    tie-break keeps the first start vertex (in channel sort order)
    achieving the minimal length, so a later start only matters if it
    yields a strictly shorter cycle — a cycle of length ``L`` through a
    start is discovered at BFS depth ``L - 1``, hence exploring beyond
    depth ``best - 2`` cannot change the winner (cycles at or above the
    limit would have been discarded by the strict comparison anyway).
    """

    def __init__(self, index: CDGIndex):
        self._index = index
        self._cache: Dict[FrozenSet[int], SccCycleEntry] = {}
        # Epoch-stamped scratch arrays for the BFS: indexed by dense
        # channel id, validity decided by comparing stamps, so a fresh BFS
        # costs one counter bump instead of fresh dicts.
        self._member_stamp: List[int] = []
        self._visit_stamp: List[int] = []
        self._parent: List[int] = []
        self._depth: List[int] = []
        self._stamp = 0

    def find_smallest(self) -> Optional[List[Channel]]:
        """The smallest CDG cycle (ties: smallest start channel), or None."""
        index = self._index
        dirty = index.consume_dirty()
        sccs = tarjan_sccs(index.sorted_vertices(), index.successors)

        new_cache: Dict[FrozenSet[int], SccCycleEntry] = {}
        best: Optional[SccCycleEntry] = None
        for component in sccs:
            if len(component) < 2:
                continue
            key = frozenset(component)
            entry = self._cache.get(key)
            if entry is None or not dirty.isdisjoint(key):
                entry = self._search_component(component)
            new_cache[key] = entry
            if best is None or (entry.length, entry.start_key) < (best.length, best.start_key):
                best = entry
        self._cache = new_cache
        if best is None:
            return None
        return [index.channel_of(i) for i in best.cycle]

    # ------------------------------------------------------------------
    def _ensure_capacity(self, size: int) -> None:
        """Grow the scratch arrays to cover every interned channel id."""
        missing = size - len(self._visit_stamp)
        if missing > 0:
            self._member_stamp.extend([0] * missing)
            self._visit_stamp.extend([0] * missing)
            self._parent.extend([-1] * missing)
            self._depth.extend([0] * missing)

    def _search_component(self, component: List[int]) -> SccCycleEntry:
        """BFS from every component vertex (sorted order), inside the SCC.

        Same BFS order and parent pointers as the seed search, over
        epoch-stamped flat arrays of dense channel ids; each BFS after the
        first found cycle is bounded to the depth where a strictly shorter
        cycle can still close (see the class docstring for why that
        preserves the winner exactly).
        """
        index = self._index
        self._ensure_capacity(index.interned_count)
        member = self._member_stamp
        visit = self._visit_stamp
        parent = self._parent
        depth = self._depth
        self._stamp += 1
        component_stamp = self._stamp
        for vertex in component:
            member[vertex] = component_stamp
        starts = sorted(component, key=index.key_of)
        best_cycle: Optional[Tuple[int, ...]] = None
        best_start: Optional[int] = None
        sorted_successors = index.sorted_successors
        for start in starts:
            max_depth = None if best_cycle is None else len(best_cycle) - 2
            self._stamp += 1
            bfs_stamp = self._stamp
            visit[start] = bfs_stamp
            parent[start] = -1
            depth[start] = 0
            queue = deque((start,))
            found: Optional[Tuple[int, ...]] = None
            while queue and found is None:
                node = queue.popleft()
                node_depth = depth[node]
                expand = max_depth is None or node_depth < max_depth
                for succ in sorted_successors(node):
                    if succ == start:
                        cycle = [node]
                        current = node
                        while parent[current] != -1:
                            current = parent[current]
                            cycle.append(current)
                        cycle.reverse()
                        found = tuple(cycle)
                        break
                    if (
                        expand
                        and member[succ] == component_stamp
                        and visit[succ] != bfs_stamp
                    ):
                        visit[succ] = bfs_stamp
                        parent[succ] = node
                        depth[succ] = node_depth + 1
                        queue.append(succ)
            if found is None:
                continue
            if best_cycle is None or len(found) < len(best_cycle):
                best_cycle = found
                best_start = start
                if len(best_cycle) == 2:
                    break
        if best_cycle is None:  # pragma: no cover - SCCs of size >= 2 have cycles
            raise AssertionError("non-trivial SCC without a cycle")
        return SccCycleEntry(
            length=len(best_cycle),
            start_key=index.key_of(best_start),
            cycle=best_cycle,
        )


def simple_cycles(vertices: Iterable[int], successors) -> Iterator[Tuple[int, ...]]:
    """Every elementary cycle of the graph, once each (Johnson 1975).

    Each strongly connected component with a cycle is searched from its
    first vertex in ``vertices`` order: every cycle through that vertex is
    yielded as a tuple of ids starting there.  The vertex is then dropped
    and the rest of the component is split into components again.  So each
    cycle starts at its earliest vertex.  Components come in
    :func:`tarjan_sccs` order and successors in the order ``successors(v)``
    yields them, so the order depends on the arguments alone, never on
    string hashing.
    """
    order = list(vertices)
    rank = {vertex: position for position, vertex in enumerate(order)}

    def split(members, succ) -> List[List[int]]:
        """Cyclic components of ``members`` in rank order, reversed for popping."""
        found = [c for c in tarjan_sccs(members, succ) if len(c) > 1]
        return [sorted(c, key=rank.__getitem__) for c in reversed(found)]

    pending = split(order, successors)
    while pending:
        component = pending.pop()
        start = component[0]
        inside = set(component)
        adjacency = {v: [w for w in successors(v) if w in inside] for v in component}
        yield from _circuits(start, adjacency)
        rest = {v: [w for w in adjacency[v] if w != start] for v in component[1:]}
        pending.extend(split(component[1:], rest.__getitem__))


def _circuits(start: int, adjacency: Dict[int, List[int]]) -> Iterator[Tuple[int, ...]]:
    """Johnson's CIRCUIT search: the elementary cycles through ``start``.

    An iterative depth-first search that keeps a vertex blocked while no
    cycle back to ``start`` can pass through it, and releases it (with the
    vertices waiting on it in ``waiting``, Johnson's B lists) once one does.
    """
    path = [start]
    blocked = {start}
    waiting: Dict[int, set] = {}
    stack = [iter(adjacency[start])]
    closed = [False]
    while stack:
        for succ in stack[-1]:
            if succ == start:
                yield tuple(path)
                closed[-1] = True
            elif succ not in blocked:
                path.append(succ)
                blocked.add(succ)
                stack.append(iter(adjacency[succ]))
                closed.append(False)
                break
        else:
            stack.pop()
            vertex = path.pop()
            if closed.pop():
                if closed:
                    closed[-1] = True
                release = [vertex]
                while release:
                    node = release.pop()
                    if node in blocked:
                        blocked.discard(node)
                        release.extend(waiting.pop(node, ()))
            else:
                for succ in adjacency[vertex]:
                    waiting.setdefault(succ, set()).add(vertex)


def count_cycles_indexed(index: CDGIndex, limit: Optional[int] = 10000) -> int:
    """Capped elementary-cycle count over the int-indexed CDG.

    Same contract as :func:`repro.core.cycles.count_cycles`: a count
    capped at ``limit`` does not depend on the enumeration order.
    """
    if limit is not None and limit <= 0:
        return 0
    cycles = simple_cycles(index.sorted_vertices(), index.successors)
    return sum(1 for _ in islice(cycles, limit))
