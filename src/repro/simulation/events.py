"""Fault-injection event schedules for the wormhole simulation.

A :class:`FaultEvent` degrades (or repairs) the simulated topology at a
given cycle; an :class:`EventSchedule` is an ordered, deterministic,
JSON-round-trippable collection of them.  Schedules are *data*, not
behaviour: the :class:`~repro.simulation.recovery.RecoveryController`
consumes one schedule per run, and both simulation engines replay the same
schedule against the same design copy, so a faulted run stays exactly
reproducible (and cross-checkable) from ``(design, config)`` alone.

Four actions exist, mirroring the fault/power state the related SDN repos
attach to their topology objects:

* ``fail_link`` — remove one *directed* physical link (and every VC it
  carries) from the running topology;
* ``fail_router`` — remove every link entering or leaving a switch (the
  switch itself stays, so locally attached cores keep their NI);
* ``restore_link`` / ``restore_router`` — re-add links that a previous
  fail event removed, with the VC count and physical length they had at
  failure time.  Restoring something that was never failed (or is already
  back) is a no-op, so random schedules never have to be consistency
  checked.  Targets must exist in the healthy topology though:
  :meth:`EventSchedule.validate_targets` rejects a schedule naming an
  unknown link or switch before the run starts.  Every run applies it
  against the design it simulates (the
  :class:`~repro.simulation.recovery.RecoveryController` constructor),
  and so do the resolution paths that know the topology
  (:meth:`EventSchedule.from_spec`, the
  :data:`repro.api.registry.fault_models` generators).

Seeded schedules come from the fault models
(:mod:`repro.simulation.fault_models`, ``uniform`` among them), which draw
every choice from one :class:`random.Random` over *sorted* link/switch
lists, so a schedule is a pure function of ``(design, seed,
parameters)``; a spec's ``fault_schedule`` document lists explicit events
only (:meth:`EventSchedule.from_spec`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple, Union

from repro.domains import NON_NEGATIVE, Domains
from repro.errors import SimulationError
from repro.model.channels import Link
from repro.model.topology import Topology

#: Valid event actions, in no particular order.
ACTIONS = ("fail_link", "fail_router", "restore_link", "restore_router")
_LINK_ACTIONS = ("fail_link", "restore_link")
_ROUTER_ACTIONS = ("fail_router", "restore_router")


@dataclass(frozen=True, order=True)
class FaultEvent:
    """One scheduled topology change.

    ``target`` is ``(src, dst, index)`` for link events and ``(switch,)``
    for router events.  Events order by ``(cycle, action, target)``, which
    is the order the recovery controller applies same-cycle batches in.
    """

    cycle: int
    action: str
    target: Tuple[Any, ...]
    domains = Domains("fault event", SimulationError, cycle=NON_NEGATIVE, action=ACTIONS)

    def __post_init__(self):
        self.domains.check(self.__dict__)
        if self.action in _LINK_ACTIONS and len(self.target) != 3:
            raise SimulationError(
                f"{self.action} target must be (src, dst, index), got {self.target!r}"
            )
        if self.action in _ROUTER_ACTIONS and len(self.target) != 1:
            raise SimulationError(
                f"{self.action} target must be (switch,), got {self.target!r}"
            )

    @property
    def is_link_event(self) -> bool:
        """True for ``fail_link`` / ``restore_link``."""
        return self.action in _LINK_ACTIONS

    @property
    def link(self) -> Link:
        """The targeted link (link events only)."""
        src, dst, index = self.target
        return Link(src, dst, index)

    @property
    def switch(self) -> str:
        """The targeted switch (router events only)."""
        return self.target[0]

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON form: ``{"cycle", "action", "link": {...}}`` or ``"switch"``."""
        document: Dict[str, Any] = {"cycle": self.cycle, "action": self.action}
        if self.is_link_event:
            src, dst, index = self.target
            document["link"] = {"src": src, "dst": dst, "index": index}
        else:
            document["switch"] = self.target[0]
        return document

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultEvent":
        """Rebuild an event; malformed documents raise SimulationError."""
        if not isinstance(data, Mapping):
            raise SimulationError(
                f"fault event must be a mapping, got {type(data).__name__}"
            )
        action = data.get("action")
        if action in _LINK_ACTIONS:
            link = data.get("link")
            if not isinstance(link, Mapping) or "src" not in link or "dst" not in link:
                raise SimulationError(
                    f"{action} event needs a link mapping with src/dst, got {link!r}"
                )
            target: Tuple[Any, ...] = (link["src"], link["dst"], link.get("index", 0))
        elif action in _ROUTER_ACTIONS:
            if "switch" not in data:
                raise SimulationError(f"{action} event needs a 'switch' field")
            target = (data["switch"],)
        else:
            target = ()  # the action's domain rejects it, naming the valid ones
        return cls(cycle=data.get("cycle", 0), action=action, target=target)


class EventSchedule:
    """An ordered collection of fault events (chainable builder).

    ``events`` always comes back sorted by ``(cycle, action, target)``;
    iteration, length and JSON round-trips all use that canonical order, so
    two schedules built from the same events in any order are
    indistinguishable.
    """

    def __init__(self, events: Iterable[FaultEvent] = ()):
        self._events: List[FaultEvent] = list(events)

    # ------------------------------------------------------------------
    # builder methods (chainable)
    # ------------------------------------------------------------------
    def fail_link(self, cycle: int, src: str, dst: str, index: int = 0) -> "EventSchedule":
        """Schedule the directed link ``src->dst`` to fail at ``cycle``."""
        self._events.append(FaultEvent(cycle, "fail_link", (src, dst, index)))
        return self

    def restore_link(self, cycle: int, src: str, dst: str, index: int = 0) -> "EventSchedule":
        """Schedule a previously failed link to come back at ``cycle``."""
        self._events.append(FaultEvent(cycle, "restore_link", (src, dst, index)))
        return self

    def fail_router(self, cycle: int, switch: str) -> "EventSchedule":
        """Schedule every link touching ``switch`` to fail at ``cycle``."""
        self._events.append(FaultEvent(cycle, "fail_router", (switch,)))
        return self

    def restore_router(self, cycle: int, switch: str) -> "EventSchedule":
        """Schedule ``switch``'s previously failed links back at ``cycle``."""
        self._events.append(FaultEvent(cycle, "restore_router", (switch,)))
        return self

    # ------------------------------------------------------------------
    @property
    def events(self) -> Tuple[FaultEvent, ...]:
        """The events in canonical ``(cycle, action, target)`` order."""
        return tuple(sorted(self._events))

    def __len__(self) -> int:
        return len(self._events)

    def __bool__(self) -> bool:
        return bool(self._events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def __eq__(self, other) -> bool:
        if not isinstance(other, EventSchedule):
            return NotImplemented
        return self.events == other.events

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EventSchedule({len(self._events)} event(s))"

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (events in canonical order)."""
        return {"events": [event.to_dict() for event in self.events]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "EventSchedule":
        """Rebuild a schedule from its :meth:`to_dict` form."""
        if not isinstance(data, Mapping):
            raise SimulationError(
                f"event schedule must be a mapping, got {type(data).__name__}"
            )
        events = data.get("events", [])
        if not isinstance(events, (list, tuple)):
            raise SimulationError(f"'events' must be a list, got {events!r}")
        return cls(FaultEvent.from_dict(entry) for entry in events)

    # ------------------------------------------------------------------
    # target validation
    # ------------------------------------------------------------------
    def validate_targets(self, topology: Topology) -> "EventSchedule":
        """Check every event's target against ``topology`` up front.

        A link event must name a physical link of the (healthy) topology
        and a router event one of its switches; anything else raises a
        :class:`~repro.errors.SimulationError` naming the missing target
        *before* the run starts, instead of producing a schedule whose
        events silently no-op (or KeyError) mid-simulation.  Returns the
        schedule, so resolution helpers can chain on it.
        """
        for event in self.events:
            if event.is_link_event:
                if not topology.has_link(event.link):
                    src, dst, index = event.target
                    raise SimulationError(
                        f"fault event {event.action!r} at cycle {event.cycle} "
                        f"targets link {src}->{dst} (index {index}), which "
                        f"does not exist in topology {topology.name!r}"
                    )
            elif not topology.has_switch(event.switch):
                raise SimulationError(
                    f"fault event {event.action!r} at cycle {event.cycle} "
                    f"targets switch {event.switch!r}, which does not exist "
                    f"in topology {topology.name!r}"
                )
        return self

    # ------------------------------------------------------------------
    @classmethod
    def from_spec(
        cls,
        value: Union[None, "EventSchedule", Mapping[str, Any]],
        *,
        topology: Optional[Topology] = None,
    ) -> Optional["EventSchedule"]:
        """Resolve a spec-level fault-schedule value into a schedule.

        Accepts ``None`` (no faults), an :class:`EventSchedule` (passed
        through) or an explicit ``{"events": [...]}`` document; with a
        ``topology`` the targets are validated against it.  A seeded
        random schedule is the ``uniform`` fault model's job
        (:func:`repro.simulation.fault_models.uniform_model`), so a
        ``{"random": {...}}`` document is rejected with a pointer to it.
        """
        if value is None:
            return None
        if isinstance(value, EventSchedule):
            if topology is not None:
                value.validate_targets(topology)
            return value
        if not isinstance(value, Mapping):
            raise SimulationError(
                f"fault schedule must be a mapping or EventSchedule, got "
                f"{type(value).__name__}"
            )
        if "random" in value:
            raise SimulationError(
                "a fault schedule lists explicit 'events' only; draw a seeded "
                'random schedule with fault_model: "uniform" and the same '
                "parameters as fault_params"
            )
        if "events" not in value:
            raise SimulationError("fault schedule mapping needs an 'events' list")
        schedule = cls.from_dict(value)
        if topology is not None:
            schedule.validate_targets(topology)
        return schedule
