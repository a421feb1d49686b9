"""Algorithm 1 — the deadlock-removal driver.

The outer loop of the paper's method:

1. build the channel dependency graph from the current routes;
2. find the smallest cycle (breaking the smallest cycle first often also
   breaks larger cycles sharing edges with it);
3. evaluate the cost of breaking the cycle in the forward and in the
   backward direction (Algorithm 2) and apply the cheaper break;
4. update topology and routes and repeat until the CDG is acyclic.

On top of the paper's algorithm this module exposes two ablation knobs,
which only tests set: the cycle-selection heuristic (smallest / largest /
random) and the direction policy (best-of-both / forward-only /
backward-only).  No spec, plan or CLI flag reaches them.

One loop drives the algorithm (:meth:`DeadlockRemover._run_loop`); an
engine only supplies how it finds the next cycle, how it costs a break and
how it updates its graph after the break.  Engines are looked up by name in
the pluggable :data:`repro.api.registry.removal_engines` registry (new
engines register with a decorator and become valid ``engine=`` values
everywhere, including :class:`~repro.api.spec.RunSpec` and the CLI).
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
  Also the only loop for the ablation selections (largest / random).
"""

from __future__ import annotations

import random
import time
from typing import Callable, Optional

from repro.api.registry import removal_engines
from repro.core.breaker import RESOURCE_PHYSICAL, RESOURCE_VIRTUAL, break_cycle
from repro.core.cdg import build_cdg
from repro.core.cost import best_break, find_dependency_to_break
from repro.core.cycles import (
    CYCLE_COUNT_CAP,
    count_cycles,
    find_all_cycles,
    find_largest_cycle,
    find_smallest_cycle,
)
from repro.core.report import RemovalResult
from repro.errors import ConvergenceError, RemovalError
from repro.model.design import NocDesign
from repro.model.validation import validate_design
from repro.perf.cdg_index import CDGIndex
from repro.perf.cost_index import CycleCostEngine
from repro.perf.cycle_search import IncrementalCycleSearch, count_cycles_indexed

SELECT_SMALLEST = "smallest"
SELECT_LARGEST = "largest"
SELECT_RANDOM = "random"
_SELECTIONS = (SELECT_SMALLEST, SELECT_LARGEST, SELECT_RANDOM)

POLICY_BEST = "best"
POLICY_FORWARD = "forward"
POLICY_BACKWARD = "backward"
_POLICIES = (POLICY_BEST, POLICY_FORWARD, POLICY_BACKWARD)

ENGINE_CONTEXT = "context"
ENGINE_REBUILD = "rebuild"
#: Engine used when callers do not choose one explicitly.
DEFAULT_REMOVAL_ENGINE = ENGINE_CONTEXT


class DeadlockRemover:
    """Configurable implementation of Algorithm 1.

    Parameters
    ----------
    cycle_selection:
        Which cycle to break at every iteration.  ``"smallest"`` is the
        paper's heuristic; ``"largest"`` and ``"random"`` are ablations
        that only tests set.
    direction_policy:
        ``"best"`` compares forward and backward costs (the paper);
        ``"forward"`` / ``"backward"`` force a single direction, an
        ablation that only tests set.
    resource_mode:
        ``"virtual"`` (default) duplicates channels as extra VCs on the same
        physical link; ``"physical"`` adds parallel physical links instead,
        for NoC architectures without VC support (Section 1 of the paper).
    max_iterations:
        Safety cap; ``None`` derives a generous bound from the CDG size.
    count_initial_cycles:
        When true the initial number of elementary cycles is counted, up to
        :data:`~repro.core.cycles.CYCLE_COUNT_CAP` (can be expensive on
        dense CDGs), and stored in the result.
    seed:
        Random seed, only used with ``cycle_selection="random"``.
    on_iteration:
        Optional callback invoked with each
        :class:`~repro.core.report.BreakAction` as it happens.
    validate:
        Validate the design before and after removal (recommended).
    engine:
        ``"context"`` (default) runs the loop on a CDG index the run builds
        and maintains from route deltas, the SCC-pruned depth-limited cycle
        search, one-pass int-indexed cost tables and indexed affected-flow
        lookup; ``"rebuild"`` is the oracle (full ``build_cdg`` + full BFS
        sweep per iteration).  Both produce identical break sequences;
        ``"context"`` only speeds up the paper's ``"smallest"`` selection
        and transparently falls back to the rebuild loop for the ablation
        selections.
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
        cycle_selection: str = SELECT_SMALLEST,
        direction_policy: str = POLICY_BEST,
        resource_mode: str = RESOURCE_VIRTUAL,
        max_iterations: Optional[int] = None,
        count_initial_cycles: bool = True,
        seed: int = 0,
        on_iteration: Optional[Callable] = None,
        validate: bool = True,
        engine: str = DEFAULT_REMOVAL_ENGINE,
        cross_check: bool = False,
    ):
        if cycle_selection not in _SELECTIONS:
            raise RemovalError(f"unknown cycle selection {cycle_selection!r}")
        if direction_policy not in _POLICIES:
            raise RemovalError(f"unknown direction policy {direction_policy!r}")
        if resource_mode not in (RESOURCE_VIRTUAL, RESOURCE_PHYSICAL):
            raise RemovalError(f"unknown resource mode {resource_mode!r}")
        if engine not in removal_engines:
            raise RemovalError(
                f"unknown removal engine {engine!r}; "
                f"available: {', '.join(removal_engines.names())}"
            )
        self.cycle_selection = cycle_selection
        self.direction_policy = direction_policy
        self.resource_mode = resource_mode
        self.max_iterations = max_iterations
        self.count_initial_cycles = count_initial_cycles
        self.seed = seed
        self.on_iteration = on_iteration
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

        rng = random.Random(self.seed)
        engine = removal_engines.get(self.engine)
        result = engine(self, work, rng)

        result.runtime_seconds = time.perf_counter() - start
        if self.validate:
            validate_design(work)
        return result

    def _run_loop(self, work: NocDesign, steps) -> RemovalResult:
        """Algorithm 1's outer loop, shared by every built-in engine.

        ``steps`` (a :class:`_RebuildSteps` or :class:`_ContextSteps`)
        supplies what the engines do differently: ``next_cycle``,
        ``choose_break`` and ``after_break``, plus the CDG they maintain
        (``graph``, with ``is_acyclic()`` and ``edge_count``), its capped
        ``count_cycles`` and the ``index`` handed to
        :func:`~repro.core.breaker.break_cycle`.
        """
        initially_free = steps.graph.is_acyclic()
        initial_cycles = 0
        if self.count_initial_cycles and not initially_free:
            initial_cycles = steps.count_cycles(limit=CYCLE_COUNT_CAP)

        max_iterations = self.max_iterations
        if max_iterations is None:
            max_iterations = 100 + 10 * max(steps.graph.edge_count, 1)

        result = RemovalResult(
            design=work,
            initially_deadlock_free=initially_free,
            initial_cycle_count=initial_cycles,
        )

        iteration = 0
        while True:
            cycle = steps.next_cycle()
            if cycle is None:
                break
            iteration += 1
            if iteration > max_iterations:
                raise ConvergenceError(iteration - 1, steps.count_cycles(limit=100))
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
            if self.on_iteration is not None:
                self.on_iteration(action)
            steps.after_break(action)

        result.iterations = iteration
        if not steps.graph.is_acyclic():  # pragma: no cover - defensive
            raise RemovalError("internal error: CDG still cyclic after removal loop")
        return result


def _reference_break(cycle, routes, direction_policy: str):
    """``(direction, cost, position, table)`` from the reference builder."""
    if direction_policy == POLICY_BEST:
        return best_break(cycle, routes)
    # The forward/backward policy names are the direction names.
    return (direction_policy, *find_dependency_to_break(cycle, routes, direction_policy))


class _RebuildSteps:
    """The oracle: full ``build_cdg`` and full cycle search per break."""

    index = None

    def __init__(self, remover: DeadlockRemover, work: NocDesign, rng: random.Random):
        self._remover = remover
        self._work = work
        self._rng = rng
        self.graph = build_cdg(work)

    def count_cycles(self, limit: int) -> int:
        return count_cycles(self.graph, limit=limit)

    def next_cycle(self):
        selection = self._remover.cycle_selection
        if selection == SELECT_SMALLEST:
            return find_smallest_cycle(self.graph)
        if selection == SELECT_LARGEST:
            return find_largest_cycle(self.graph, limit=CYCLE_COUNT_CAP)
        cycles = find_all_cycles(self.graph, limit=CYCLE_COUNT_CAP)
        if not cycles:
            return None
        return cycles[self._rng.randrange(len(cycles))]

    def choose_break(self, cycle):
        return _reference_break(cycle, self._work.routes, self._remover.direction_policy)

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

    def __init__(self, remover: DeadlockRemover, work: NocDesign):
        self._remover = remover
        self._work = work
        self.graph = self.index = CDGIndex.from_routes(work.routes)
        self._costs = CycleCostEngine(self.index)
        self._search = IncrementalCycleSearch(self.index)

    def count_cycles(self, limit: int) -> int:
        return count_cycles_indexed(self.graph, limit=limit)

    def next_cycle(self):
        return self._search.find_smallest()

    def choose_break(self, cycle):
        choice = self._costs.best_break(cycle, self._remover.direction_policy)
        if self._remover.cross_check:
            self._verify_choice(cycle, choice)
        return choice

    def after_break(self, action) -> None:
        # Apply the break's route delta instead of rebuilding: remove the
        # dependencies of every rerouted flow's old route, add the new ones.
        routes = self._work.routes
        for flow_name, old_route in (action.previous_routes or {}).items():
            self.index.apply_route_change(
                flow_name, old_route.channels, routes.route(flow_name).channels
            )
        if self._remover.cross_check:
            self.graph.verify_against(build_cdg(self._work))

    def _verify_choice(self, cycle, choice) -> None:
        """Cross-check: the indexed cost engine must match the reference."""
        direction, _, position, table = choice
        ref_direction, ref_cost, ref_position, ref_table = _reference_break(
            cycle, self._work.routes, self._remover.direction_policy
        )
        if (
            (direction, table.best_cost, position)
            != (ref_direction, ref_cost, ref_position)
            or table != ref_table
        ):
            raise RemovalError(
                "indexed cost engine diverged from the reference builder: "
                f"chose {direction!r} cost {table.best_cost} at position "
                f"{position}, reference chose {ref_direction!r} cost "
                f"{ref_cost} at position {ref_position}"
            )


@removal_engines.register(ENGINE_CONTEXT)
def _context_engine(
    remover: DeadlockRemover, work: NocDesign, rng: random.Random
) -> RemovalResult:
    """Default engine: the indexed fast path.

    Only accelerates the paper's ``"smallest"`` selection; the ablation
    selections transparently fall back to the rebuild loop.
    """
    if remover.cycle_selection != SELECT_SMALLEST:
        return remover._run_loop(work, _RebuildSteps(remover, work, rng))
    return remover._run_loop(work, _ContextSteps(remover, work))


@removal_engines.register(ENGINE_REBUILD)
def _rebuild_engine(
    remover: DeadlockRemover, work: NocDesign, rng: random.Random
) -> RemovalResult:
    """Oracle engine: full ``build_cdg`` + full BFS sweep per iteration."""
    return remover._run_loop(work, _RebuildSteps(remover, work, rng))


def remove_deadlocks(design: NocDesign, **options) -> RemovalResult:
    """Convenience wrapper: ``DeadlockRemover(**options).remove(design)``."""
    in_place = options.pop("in_place", False)
    remover = DeadlockRemover(**options)
    return remover.remove(design, in_place=in_place)


def is_deadlock_free(design: NocDesign) -> bool:
    """True when the design's CDG is already acyclic (no removal needed)."""
    return build_cdg(design).is_acyclic()
