"""Algorithm 1 — the deadlock-removal driver.

The outer loop of the paper's method:

1. build the channel dependency graph from the current routes;
2. find the smallest cycle (breaking the smallest cycle first often also
   breaks larger cycles sharing edges with it);
3. evaluate the cost of breaking the cycle in the forward and in the
   backward direction (Algorithm 2) and apply the cheaper break;
4. update topology and routes and repeat until the CDG is acyclic.

One loop drives the algorithm (:meth:`DeadlockRemover._run_loop`); an
engine only supplies how it finds the next cycle, how it costs a break and
how it updates its graph after the break.

Before the loop, one Tarjan pass over the unprotected CDG gives the
result its exact cycle structure: the number of cyclic strongly connected
components, the channel count of the largest and the number of channels
on some cycle (:func:`repro.perf.cycle_search.cycle_structure`).
Elementary cycles are not counted: a dense CDG has exponentially many, and
the paper reports what breaking them costs, not how many there were.  Only
a run that hits its iteration cap counts them, capped at 100, for the
:class:`~repro.errors.ConvergenceError` it raises
(:func:`repro.core.cycles.count_cycles`, which ``noc-deadlock analyze``
also runs).

Engines are looked up by name in the pluggable
:data:`repro.api.registry.removal_engines` registry (new engines register
with a decorator and become valid ``engine=`` values everywhere,
including :class:`~repro.api.spec.RunSpec` and the CLI).
Built-ins:

* ``engine="context"`` (default) — the fast path.  The run builds one
  :class:`~repro.perf.cdg_index.CDGIndex` from the design's routes and
  maintains it from the route deltas each break reports; the
  smallest-cycle search is SCC-pruned and depth-limited
  (:mod:`repro.perf.cycle_search`); cost tables for both
  break directions come from one pass over interned channel-id arrays
  (:mod:`repro.perf.cost_index`); and the affected flows of a break are
  read from the indexed per-edge flow sets instead of scanning every
  route.  Identical :class:`~repro.core.report.BreakAction` sequences to
  the oracle.
* ``engine="rebuild"`` — the oracle and the seed behaviour:
  ``build_cdg(work)`` from scratch and a full BFS sweep per iteration.
"""

from __future__ import annotations

import time
from typing import Optional

from repro.api.registry import removal_engines
from repro.core.breaker import RESOURCE_PHYSICAL, RESOURCE_VIRTUAL, break_cycle
from repro.core.cdg import build_cdg
from repro.core.cost import best_break
from repro.core.cycles import count_cycles, find_smallest_cycle
from repro.core.report import RemovalResult
from repro.errors import ConvergenceError, RemovalError
from repro.model.design import NocDesign
from repro.model.validation import validate_design
from repro.perf.cdg_index import CDGIndex
from repro.perf.cost_index import CycleCostEngine
from repro.perf.cycle_search import IncrementalCycleSearch, cycle_structure

ENGINE_CONTEXT = "context"
ENGINE_REBUILD = "rebuild"
#: Engine used when callers do not choose one explicitly.
DEFAULT_REMOVAL_ENGINE = ENGINE_CONTEXT


class DeadlockRemover:
    """Algorithm 1: break the smallest cycle first, in the cheaper direction.

    Parameters
    ----------
    resource_mode:
        ``"virtual"`` (default) duplicates channels as extra VCs on the same
        physical link; ``"physical"`` adds parallel physical links instead,
        for NoC architectures without VC support (Section 1 of the paper).
    max_iterations:
        Safety cap; ``None`` derives a generous bound from the CDG size.
    validate:
        Validate the design before and after removal (recommended).
    engine:
        ``"context"`` (default) runs the loop on a CDG index the run builds
        and maintains from route deltas, the SCC-pruned depth-limited cycle
        search, one-pass int-indexed cost tables and indexed affected-flow
        lookup; ``"rebuild"`` is the oracle (full ``build_cdg`` + full BFS
        sweep per iteration).  Both produce identical break sequences.
    cross_check:
        Debug flag for the context engine: after every break, rebuild the
        CDG from scratch and assert the index matches it exactly, and
        re-derive every cost table (and break choice) with the reference
        builder, raising on any mismatch (slow — for tests and debugging
        only).  The CDG verification covers the per-edge flow sets the
        affected-flow lookup is served from.  Ignored by the rebuild
        engine.
    """

    def __init__(
        self,
        *,
        resource_mode: str = RESOURCE_VIRTUAL,
        max_iterations: Optional[int] = None,
        validate: bool = True,
        engine: str = DEFAULT_REMOVAL_ENGINE,
        cross_check: bool = False,
    ):
        if resource_mode not in (RESOURCE_VIRTUAL, RESOURCE_PHYSICAL):
            raise RemovalError(f"unknown resource mode {resource_mode!r}")
        if engine not in removal_engines:
            raise RemovalError(
                f"unknown removal engine {engine!r}; "
                f"available: {', '.join(removal_engines.names())}"
            )
        self.resource_mode = resource_mode
        self.max_iterations = max_iterations
        self.validate = validate
        self.engine = engine
        self.cross_check = cross_check

    # ------------------------------------------------------------------
    def remove(self, design: NocDesign, *, in_place: bool = False) -> RemovalResult:
        """Run Algorithm 1 on ``design`` and return the removal result.

        By default the input design is left untouched and the result carries
        a modified copy; pass ``in_place=True`` to mutate the input.
        """
        start = time.perf_counter()
        if self.validate:
            validate_design(design)
        work = design if in_place else design.copy()
        result = removal_engines.get(self.engine)(self, work)

        result.runtime_seconds = time.perf_counter() - start
        if self.validate:
            validate_design(work)
        return result

    def _run_loop(self, work: NocDesign, steps) -> RemovalResult:
        """Algorithm 1's outer loop, shared by every built-in engine.

        ``steps`` (a :class:`_RebuildSteps` or :class:`_ContextSteps`)
        supplies what the engines do differently: ``next_cycle``,
        ``choose_break`` and ``after_break``, plus the CDG they maintain
        (``graph``, with ``is_acyclic()`` and ``edge_count``), its
        ``cycle_structure`` and the ``index`` handed to
        :func:`~repro.core.breaker.break_cycle`.  A run past
        ``max_iterations`` raises :class:`~repro.errors.ConvergenceError`
        with the capped cycle count of the CDG rebuilt from ``work``.
        """
        cyclic_sccs, largest_scc, cyclic_channels = steps.cycle_structure()

        max_iterations = self.max_iterations
        if max_iterations is None:
            max_iterations = 100 + 10 * max(steps.graph.edge_count, 1)

        result = RemovalResult(
            design=work,
            initial_cyclic_sccs=cyclic_sccs,
            initial_largest_scc=largest_scc,
            initial_cyclic_channels=cyclic_channels,
        )

        iteration = 0
        while True:
            cycle = steps.next_cycle()
            if cycle is None:
                break
            iteration += 1
            if iteration > max_iterations:
                raise ConvergenceError(iteration - 1, count_cycles(build_cdg(work), limit=100))
            direction, _, position, table = steps.choose_break(cycle)
            action = break_cycle(
                work,
                cycle,
                position,
                direction,
                iteration=iteration,
                cost_table=table,
                resource_mode=self.resource_mode,
                index=steps.index,
            )
            result.actions.append(action)
            steps.after_break(action)

        result.iterations = iteration
        if not steps.graph.is_acyclic():  # pragma: no cover - defensive
            raise RemovalError("internal error: CDG still cyclic after removal loop")
        return result


class _RebuildSteps:
    """The oracle: full ``build_cdg`` and full cycle search per break."""

    index = None

    def __init__(self, work: NocDesign):
        self._work = work
        self.graph = build_cdg(work)

    def cycle_structure(self):
        return cycle_structure(self.graph.channels, self.graph.successors)

    def next_cycle(self):
        return find_smallest_cycle(self.graph)

    def choose_break(self, cycle):
        return best_break(cycle, self._work.routes)

    def after_break(self, action) -> None:
        # The CDG is a pure function of the routes, so rebuilding it after
        # every break keeps it consistent by construction (Step 12).
        self.graph = build_cdg(self._work)


class _ContextSteps:
    """The fast path over one CDG index built for this run.

    The index is built from the work design's routes and updated from each
    break's route delta, the cycle search is
    :class:`~repro.perf.cycle_search.IncrementalCycleSearch`, and both cost
    tables come from the one-pass cost engine over the same index.  With
    ``cross_check`` every cost choice is re-derived by the reference
    builder and the index is verified against ``build_cdg`` after every
    break.
    """

    def __init__(self, work: NocDesign, cross_check: bool):
        self._work = work
        self._cross_check = cross_check
        self.graph = self.index = CDGIndex.from_routes(work.routes)
        self._costs = CycleCostEngine(self.index)
        self._search = IncrementalCycleSearch(self.index)

    def cycle_structure(self):
        return cycle_structure(self.index.sorted_vertices(), self.index.successors)

    def next_cycle(self):
        return self._search.find_smallest()

    def choose_break(self, cycle):
        choice = self._costs.best_break(cycle)
        if self._cross_check:
            reference = best_break(cycle, self._work.routes)
            if choice != reference:
                raise RemovalError(
                    "indexed cost engine diverged from the reference builder: chose "
                    f"{choice[0]!r} cost {choice[1]} at position {choice[2]}, reference "
                    f"chose {reference[0]!r} cost {reference[1]} at position {reference[2]}"
                )
        return choice

    def after_break(self, action) -> None:
        # Apply the break's route delta instead of rebuilding: remove the
        # dependencies of every rerouted flow's old route, add the new ones.
        routes = self._work.routes
        for flow_name, old_route in (action.previous_routes or {}).items():
            self.index.apply_route_change(
                flow_name, old_route.channels, routes.route(flow_name).channels
            )
        if self._cross_check:
            self.graph.verify_against(build_cdg(self._work))


@removal_engines.register(ENGINE_CONTEXT)
def _context_engine(remover: DeadlockRemover, work: NocDesign) -> RemovalResult:
    """Default engine: the indexed fast path."""
    return remover._run_loop(work, _ContextSteps(work, remover.cross_check))


@removal_engines.register(ENGINE_REBUILD)
def _rebuild_engine(remover: DeadlockRemover, work: NocDesign) -> RemovalResult:
    """Oracle engine: full ``build_cdg`` + full BFS sweep per iteration."""
    return remover._run_loop(work, _RebuildSteps(work))


def remove_deadlocks(design: NocDesign, **options) -> RemovalResult:
    """Convenience wrapper: ``DeadlockRemover(**options).remove(design)``."""
    in_place = options.pop("in_place", False)
    remover = DeadlockRemover(**options)
    return remover.remove(design, in_place=in_place)


def is_deadlock_free(design: NocDesign) -> bool:
    """True when the design's CDG is already acyclic (no removal needed)."""
    return build_cdg(design).is_acyclic()
