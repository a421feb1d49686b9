"""Trace-driven traffic: replay JSON per-flow demand traces.

Datacenter-scale evaluations (VL2 and its reproductions) drive the network
from measured demand traces rather than stochastic generators.  The
``trace`` entry of :data:`repro.api.registry.traffic_scenarios` replays
such a trace against a design's flows; a seeded synthetic trace generator
(:func:`synthesize_trace`) makes the scenario fully reproducible from
:attr:`repro.api.spec.RunSpec.seed` alone when no external trace is given.

Trace document shape (``format_version`` 1)::

    {
      "format_version": 1,
      "cycles": 2000,
      "events": [
        {"cycle": 0, "flow": "f3", "packets": 1},
        {"cycle": 2, "flow": "f0", "packets": 2}
      ]
    }

``cycles`` is the replay horizon (injection stops when the simulation runs
past it); each event injects ``packets`` packets of its flow at ``cycle``.
Events are canonicalized to ``(cycle, flow)`` order and merged, so any
permutation of the same events is the same trace.

A synthetic trace produced by :func:`synthesize_trace` materializes the
exact Bernoulli draws of the ``flows`` scenario at the same
``(seed, injection_scale)`` — replaying it is packet-for-packet identical
to the paper's traffic, which is what the cross-check tests pin down.

Replay goes through the generators' one per-cycle hook:
:meth:`TraceTrafficGenerator.fire` names a flow once per packet its
events emit in that cycle, and the simulator's injection loop numbers and
queues them like any other scenario's packets.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

from repro.domains import NON_NEGATIVE, POSITIVE, Domains, at_least, knobs
from repro.errors import SimulationError
from repro.model.design import NocDesign
from repro.simulation.traffic_gen import FlowTrafficGenerator

#: Version tag of the trace JSON document.
TRACE_FORMAT_VERSION = 1


@knobs("synthetic trace", SimulationError, cycles=at_least(1), injection_scale=POSITIVE)
def synthesize_trace(
    design: NocDesign,
    *,
    cycles: int,
    injection_scale: float = 1.0,
    seed: int = 0,
) -> Dict[str, Any]:
    """Materialize the ``flows`` scenario's injections as a trace document.

    The returned document, replayed through the ``trace`` scenario at the
    same ``injection_scale``, injects the exact packet sequence the
    ``flows`` scenario produces for ``(design, seed)`` — a seeded synthetic
    demand trace, reproducible from the spec's seed.  It is already in the
    canonical form :func:`validate_trace` returns.
    """
    generator = FlowTrafficGenerator(design, injection_scale=injection_scale, seed=seed)
    events: List[Dict[str, Any]] = []
    for cycle in range(cycles):
        for name in generator.fire(cycle):
            events.append({"cycle": cycle, "flow": name, "packets": 1})
    return {
        "format_version": TRACE_FORMAT_VERSION,
        "cycles": cycles,
        "events": events,
    }


class _TraceDocument:
    """A trace document's fields: a class value is the default, none means required."""

    format_version: int = TRACE_FORMAT_VERSION
    cycles: int
    events: List[Any] = []
    domains = Domains("trace", SimulationError, cycles=at_least(1))


class _TraceEvent:
    """A trace event's fields, declared as :class:`_TraceDocument`'s are."""

    cycle: int
    flow: str
    packets: int = 1
    domains = Domains("trace event", SimulationError, cycle=NON_NEGATIVE, packets=POSITIVE)


def validate_trace(document: Mapping[str, Any]) -> Dict[str, Any]:
    """Canonical form of a trace document (SimulationError on any problem).

    Events are sorted by ``(cycle, flow)`` and same-key events merged, so
    two traces listing the same injections in any order canonicalize to the
    same document (and therefore the same spec fingerprint).
    """
    document = _TraceDocument.domains.normalize(document)
    version = document["format_version"]
    if version != TRACE_FORMAT_VERSION:
        raise SimulationError(
            f"unsupported trace format version {version!r} "
            f"(expected {TRACE_FORMAT_VERSION})"
        )
    cycles = document["cycles"]
    merged: Dict[Tuple[int, str], int] = {}
    for event in document["events"]:
        event = _TraceEvent.domains.normalize(event)
        cycle = event["cycle"]
        if cycle >= cycles:
            raise SimulationError(
                f"trace event at cycle {cycle} is beyond the trace horizon "
                f"({cycles} cycles)"
            )
        key = (cycle, event["flow"])
        merged[key] = merged.get(key, 0) + event["packets"]
    canonical_events = [
        {"cycle": cycle, "flow": flow, "packets": merged[(cycle, flow)]}
        for cycle, flow in sorted(merged)
    ]
    return {
        "format_version": TRACE_FORMAT_VERSION,
        "cycles": cycles,
        "events": canonical_events,
    }


def load_trace(path: Union[str, Path]) -> Dict[str, Any]:
    """Read and canonicalize a trace JSON file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SimulationError(f"could not read trace from {path}: {exc}") from exc
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SimulationError(f"invalid trace JSON in {path}: {exc}") from exc
    return validate_trace(document)


def save_trace(document: Mapping[str, Any], path: Union[str, Path]) -> Path:
    """Canonicalize and write a trace document as JSON."""
    path = Path(path)
    canonical = validate_trace(document)
    try:
        path.write_text(json.dumps(canonical, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise SimulationError(f"could not write trace to {path}: {exc}") from exc
    return path


@knobs("traffic scenario 'trace'", SimulationError, trace_cycles=at_least(1))
class TraceTrafficGenerator(FlowTrafficGenerator):
    """Replay a per-flow demand trace (the ``trace`` scenario).

    Parameters
    ----------
    trace:
        A trace document (mapping) or a path to a trace JSON file.  When
        omitted, a synthetic trace of ``trace_cycles`` cycles is generated
        from ``(design, seed, injection_scale)`` via
        :func:`synthesize_trace` — packet-for-packet identical to the
        ``flows`` scenario over the trace horizon.
    trace_cycles:
        Horizon of the synthetic trace (ignored for explicit traces).
    injection_scale:
        For an *explicit* trace, scales every event's packet count (the
        fractional remainder becomes one extra packet with the
        corresponding probability, drawn from the seeded instance RNG).  A
        synthetic trace already embeds the scale, so replay is exact.

    Every trace flow must be an eligible flow of the design (routed, or a
    same-switch local); unknown flows raise :class:`SimulationError` up
    front rather than silently dropping demand.
    """

    scenario = "trace"

    def __init__(
        self,
        design: NocDesign,
        *,
        injection_scale: float = 1.0,
        seed: int = 0,
        trace: Optional[Union[Mapping[str, Any], str, Path]] = None,
        trace_cycles: int = 3000,
    ):
        self._explicit = trace is not None
        if isinstance(trace, (str, Path)):
            trace = load_trace(trace)
        elif trace is not None:
            trace = validate_trace(trace)
        else:
            # Canonical by construction (ascending cycles, one packet per
            # flow and cycle, flows in sorted-name order, all below the
            # horizon), so only traces from outside the program are checked.
            trace = synthesize_trace(
                design, cycles=trace_cycles, injection_scale=injection_scale, seed=seed
            )
        self._trace = trace
        # _compute_rates (called by the base constructor) reads self._trace.
        super().__init__(design, injection_scale=injection_scale, seed=seed)
        schedule: Dict[int, List[Tuple[str, int]]] = {}
        for event in trace["events"]:
            schedule.setdefault(event["cycle"], []).append(
                (event["flow"], event["packets"])
            )
        self._schedule = schedule

    # ------------------------------------------------------------------
    @property
    def trace(self) -> Dict[str, Any]:
        """The canonical trace document being replayed (copy)."""
        return {
            "format_version": self._trace["format_version"],
            "cycles": self._trace["cycles"],
            "events": [dict(event) for event in self._trace["events"]],
        }

    def _compute_rates(self) -> Dict[str, float]:
        """Average per-flow packet rates over the trace horizon.

        Used for ``offered_flits_per_cycle`` (saturation detection); the
        actual injections come from the replay, not Bernoulli draws.
        """
        names = self._eligible_flows()
        totals = {name: 0 for name in names}
        for event in self._trace["events"]:
            flow = event["flow"]
            if flow not in totals:
                raise SimulationError(
                    f"trace references flow {flow!r}, which is not an "
                    f"eligible flow of design {self.design.name!r}"
                )
            totals[flow] += event["packets"]
        cycles = self._trace["cycles"]
        scale = self.injection_scale if self._explicit else 1.0
        return {
            name: min(total * scale / cycles, 1.0) for name, total in totals.items()
        }

    def _emitted_count(self, packets: int) -> int:
        """Packets to inject for one event, after injection scaling."""
        if not self._explicit:
            return packets
        effective = packets * self.injection_scale
        count = int(effective)
        remainder = effective - count
        if remainder > 0 and self._rng.random() < remainder:
            count += 1
        return count

    def fire(self, cycle: int) -> List[str]:
        """The trace's packets at ``cycle``: a flow's name once per packet, in flow order."""
        fired: List[str] = []
        for flow_name, count in self._schedule.get(cycle, ()):
            fired.extend([flow_name] * self._emitted_count(count))
        return fired
