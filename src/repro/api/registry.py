"""Pluggable strategy registries for the experiment facade.

The evaluation pipeline is assembled from interchangeable pieces — the
removal engine, the resource-ordering class-assignment strategy, the
routing engine, the topology family, the simulation engine, the traffic
scenario, the fault model and the recovery policy.  Each piece is looked
up by name in a :class:`Registry` instead of being dispatched over
hardcoded string comparisons, so new implementations plug in with a
decorator::

    from repro.api.registry import removal_engines

    @removal_engines.register("my_engine")
    def _my_engine(remover, work):
        ...

and immediately become valid values for :class:`~repro.api.spec.RunSpec`
fields, CLI flags and the library keyword arguments.  Synthesis itself is
not a registry: :func:`repro.synthesis.builder.synthesize_design` is its
one entry point, and a spec picks a parameterized generator with
``topology_family``.

Each registry names a *provider* module — the module that registers the
built-in implementations.  The provider is imported lazily on first lookup,
so ``from repro.api.registry import removal_engines`` never drags in the
whole algorithm stack, while ``removal_engines.get("rebuild")`` always
finds the built-ins no matter which module was imported first.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Optional

from repro.errors import RegistryError


class Registry:
    """A name -> implementation mapping with decorator registration.

    Parameters
    ----------
    kind:
        Human-readable description of what is registered (used in error
        messages, e.g. ``"removal engine"``).
    provider:
        Dotted path of the module that registers the built-in entries.  It
        is imported (once) the first time the registry is queried, so the
        built-ins are always visible regardless of import order.
    """

    def __init__(self, kind: str, *, provider: Optional[str] = None):
        self.kind = kind
        self._provider = provider
        self._provider_loaded = provider is None
        self._entries: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    def register(self, name: str, obj: Any = None):
        """Register ``obj`` under ``name``; usable as a decorator.

        Re-registering an existing name raises :class:`RegistryError` —
        replacing an implementation must be an explicit
        :meth:`unregister` + :meth:`register` pair, never an accident.
        """
        if obj is None:

            def decorator(fn):
                self._add(name, fn)
                return fn

            return decorator
        self._add(name, obj)
        return obj

    def unregister(self, name: str) -> None:
        """Remove a registered entry (mainly for tests and plugins)."""
        self._load_provider()
        if name not in self._entries:
            raise RegistryError(f"cannot unregister unknown {self.kind} {name!r}")
        del self._entries[name]

    def _add(self, name: str, obj: Any) -> None:
        if not isinstance(name, str) or not name:
            raise RegistryError(
                f"{self.kind} names must be non-empty strings, got {name!r}"
            )
        if name in self._entries:
            raise RegistryError(f"{self.kind} {name!r} is already registered")
        self._entries[name] = obj

    # ------------------------------------------------------------------
    def _load_provider(self) -> None:
        if not self._provider_loaded:
            self._provider_loaded = True
            importlib.import_module(self._provider)

    def get(self, name: str) -> Any:
        """Look up an implementation; unknown names raise :class:`RegistryError`."""
        self._load_provider()
        try:
            return self._entries[name]
        except KeyError:
            raise RegistryError(
                f"unknown {self.kind} {name!r}; available: {', '.join(self.names())}"
            ) from None

    def names(self) -> List[str]:
        """Sorted names of all registered implementations."""
        self._load_provider()
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        self._load_provider()
        return name in self._entries

    def __len__(self) -> int:
        self._load_provider()
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Registry({self.kind!r}, names={self.names()!r})"


#: Removal-engine loop implementations (built-ins live in
#: :mod:`repro.core.removal`: ``"context"`` and ``"rebuild"``).
removal_engines = Registry("removal engine", provider="repro.core.removal")

#: Resource-class assignment strategies for the ordering baseline
#: (built-ins live in :mod:`repro.routing.ordering`: ``"hop_index"`` and
#: ``"layered"``).
ordering_strategies = Registry(
    "resource-ordering strategy", provider="repro.routing.ordering"
)

#: Shortest-path routing engines (built-ins live in
#: :mod:`repro.routing.shortest_path`: ``"indexed"``, the polynomial indexed
#: search, and ``"legacy"``, the seed path-tuple search kept as the
#: cross-check reference).
routing_engines = Registry("routing engine", provider="repro.routing.shortest_path")

#: Wormhole simulation engines (``"compiled"``, the int-indexed array
#: simulator from :mod:`repro.perf.sim_engine` — the default —
#: ``"batched"``, the same compiled simulator under the name that lets the
#: experiment API run whole sweeps as compiled lanes
#: (:mod:`repro.perf.batch_engine`), and ``"legacy"``, the seed
#: object-per-flit :class:`repro.simulation.simulator.Simulator` kept as
#: the cross-check reference).  The provider imports the legacy simulator
#: and batched engine modules, so all built-ins register together.
simulation_engines = Registry("simulation engine", provider="repro.perf.sim_engine")

#: Parameterized topology families (built-ins live in
#: :mod:`repro.synthesis.families`: ``"ring"``, ``"mesh"``, ``"torus"``,
#: ``"fat_tree"``, ``"clos"``/``"vl2"`` and ``"dragonfly"``).  A family
#: builds a :class:`~repro.synthesis.families.FamilyInstance` — topology
#: plus deterministic core-attachment order — from validated closed-form
#: parameters; :attr:`repro.api.spec.RunSpec.topology_family` selects one.
topology_families = Registry("topology family", provider="repro.synthesis.families")

#: Traffic-scenario generators for the wormhole simulator (built-ins live in
#: :mod:`repro.simulation.scenarios`: ``"flows"`` — the paper's
#: bandwidth-proportional traffic — plus ``"uniform"``, ``"hotspot"``,
#: ``"transpose"`` and ``"bursty"``; all seed-deterministic).
traffic_scenarios = Registry("traffic scenario", provider="repro.simulation.scenarios")

#: Correlated fault-schedule generators (built-ins live in
#: :mod:`repro.simulation.fault_models`: ``"uniform"`` — the PR 6
#: uniform-random reference — plus ``"spatial_burst"``, ``"cascade"`` and
#: ``"mtbf"``).  A model is a seeded pure function
#: ``(design, **params) -> EventSchedule``;
#: :attr:`repro.api.spec.RunSpec.fault_model` selects one and
#: :attr:`~repro.api.spec.RunSpec.fault_params` parameterizes it.
fault_models = Registry("fault model", provider="repro.simulation.fault_models")

#: Recovery policies applied by the in-simulation
#: :class:`~repro.simulation.recovery.RecoveryController` when a fault batch
#: lands (built-ins live in :mod:`repro.simulation.recovery`: ``"removal"``
#: — reroute + re-run deadlock removal, the default — plus ``"reroute"``,
#: ``"idle"`` and ``"protection"``).
#: :attr:`repro.api.spec.RunSpec.fault_recovery` selects one.
recovery_policies = Registry("recovery policy", provider="repro.simulation.recovery")
