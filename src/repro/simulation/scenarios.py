"""Traffic scenarios: pluggable spatial/temporal injection patterns.

The paper evaluates designs under their own traffic specification
(:class:`~repro.simulation.traffic_gen.FlowTrafficGenerator`, the
``"flows"`` scenario).  The classic NoC evaluation methodology additionally
stresses a network with synthetic patterns; this module provides them as
entries of the :data:`repro.api.registry.traffic_scenarios` registry, so a
:class:`~repro.api.spec.RunSpec`, the CLI and the library all select one by
name.

Because the simulator is source-routed over the design's synthesized
routes, scenarios are expressed as *redistributions of the offered load
over the design's flows* rather than as arbitrary switch-pair traffic: a
scenario re-weights which flows inject (spatial) or when they inject
(temporal) while keeping the aggregate offered load of the ``flows``
scenario at the same ``injection_scale``, so latency curves of different
scenarios are comparable.

Built-ins (all seed-deterministic — every random decision comes from the
generator's instance RNG):

* ``flows`` — bandwidth-proportional Bernoulli injection (the paper);
* ``uniform`` — the same aggregate flit load spread evenly over all flows;
* ``hotspot`` — flows into one destination switch (by default the switch
  already attracting the most bandwidth) get ``factor`` times the uniform
  weight;
* ``transpose`` — flows whose endpoint switches form a transposed index
  pair (``idx(dst) == N - 1 - idx(src)`` over sorted switch names) carry
  the load; all other flows idle at ``off_factor`` of the uniform weight;
* ``bursty`` — the paper's rates modulated by a per-flow two-state on/off
  Markov process (mean burst length ``burst_length``, duty cycle ``duty``),
  preserving the long-run average rate;
* ``trace`` — replay of a JSON per-flow demand trace
  (:class:`~repro.simulation.trace.TraceTrafficGenerator`); without an
  explicit ``trace`` parameter a seeded synthetic trace reproduces the
  ``flows`` scenario packet-for-packet.

New scenarios plug in with a decorator::

    from repro.api.registry import traffic_scenarios

    @traffic_scenarios.register("my_pattern")
    def _my_pattern(design, *, injection_scale=1.0, tech=None, seed=0, **params):
        return MyGenerator(...)
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.api.registry import traffic_scenarios
from repro.errors import SimulationError
from repro.model.design import NocDesign
from repro.power.orion import TechnologyParameters
from repro.simulation.trace import TraceTrafficGenerator
from repro.simulation.traffic_gen import FlowTrafficGenerator


class _WeightedTrafficGenerator(FlowTrafficGenerator):
    """Base for spatial scenarios: re-weight flows, preserve aggregate load.

    Subclasses provide :meth:`_flow_weight`; rates are assigned so that a
    flow's share of the aggregate offered flit load (which matches the
    ``flows`` scenario at the same ``injection_scale``) is proportional to
    its weight.
    """

    def _flow_weight(self, flow_name: str) -> float:
        raise NotImplementedError

    def _compute_rates(self) -> Dict[str, float]:
        nominal = super()._compute_rates()
        traffic = self.design.traffic
        aggregate = sum(
            rate * traffic.flow(name).packet_size_flits
            for name, rate in nominal.items()
        )
        weights = {name: self._flow_weight(name) for name in nominal}
        total_weight = sum(weights.values())
        if not nominal or total_weight <= 0 or aggregate <= 0:
            return {name: 0.0 for name in nominal}
        rates: Dict[str, float] = {}
        for name in nominal:
            size = traffic.flow(name).packet_size_flits
            share = aggregate * weights[name] / total_weight
            rates[name] = min(share / size, 1.0)
        return rates


class UniformTrafficGenerator(_WeightedTrafficGenerator):
    """Aggregate offered load spread evenly over every eligible flow."""

    scenario = "uniform"

    def _flow_weight(self, flow_name: str) -> float:
        return 1.0


class HotspotTrafficGenerator(_WeightedTrafficGenerator):
    """Uniform load with one destination switch boosted by ``factor``.

    ``hotspot`` names the destination switch; when omitted the generator
    picks the switch already attracting the largest aggregate nominal
    bandwidth (ties broken by name), which is where real workloads
    concentrate (memory controllers, shared caches).
    """

    scenario = "hotspot"

    def __init__(
        self,
        design: NocDesign,
        *,
        injection_scale: float = 1.0,
        tech: Optional[TechnologyParameters] = None,
        seed: int = 0,
        hotspot: Optional[str] = None,
        factor: float = 4.0,
    ):
        if factor <= 0:
            raise SimulationError(f"hotspot factor must be positive, got {factor}")
        if hotspot is not None and not design.topology.has_switch(hotspot):
            raise SimulationError(f"unknown hotspot switch {hotspot!r}")
        self.factor = factor
        self.hotspot = hotspot if hotspot is not None else self._busiest_switch(design)
        super().__init__(design, injection_scale=injection_scale, tech=tech, seed=seed)

    @staticmethod
    def _busiest_switch(design: NocDesign) -> str:
        incoming: Dict[str, float] = {}
        for flow in design.traffic.flows:
            switch = design.switch_of(flow.dst)
            incoming[switch] = incoming.get(switch, 0.0) + flow.bandwidth
        if not incoming:
            return min(design.topology.switches)
        return min(incoming, key=lambda switch: (-incoming[switch], switch))

    def _flow_weight(self, flow_name: str) -> float:
        flow = self.design.traffic.flow(flow_name)
        if self.design.switch_of(flow.dst) == self.hotspot:
            return self.factor
        return 1.0


class TransposeTrafficGenerator(_WeightedTrafficGenerator):
    """Load concentrated on transposed switch-index pairs.

    Switches are indexed in sorted-name order; a flow is *active* when
    ``idx(dst_switch) == N - 1 - idx(src_switch)`` (the matrix-transpose
    pairing projected onto the design's flows).  Inactive flows idle at
    ``off_factor`` of the uniform weight, so every design offers non-zero
    deterministic traffic even when no flow matches the pairing.
    """

    scenario = "transpose"

    def __init__(
        self,
        design: NocDesign,
        *,
        injection_scale: float = 1.0,
        tech: Optional[TechnologyParameters] = None,
        seed: int = 0,
        off_factor: float = 0.1,
    ):
        if off_factor < 0:
            raise SimulationError(
                f"transpose off_factor must be non-negative, got {off_factor}"
            )
        self.off_factor = off_factor
        self._switch_index = {
            name: i for i, name in enumerate(sorted(design.topology.switches))
        }
        super().__init__(design, injection_scale=injection_scale, tech=tech, seed=seed)

    def is_transposed(self, flow_name: str) -> bool:
        """True when the flow's endpoint switches form a transposed pair."""
        flow = self.design.traffic.flow(flow_name)
        src = self._switch_index[self.design.switch_of(flow.src)]
        dst = self._switch_index[self.design.switch_of(flow.dst)]
        return dst == len(self._switch_index) - 1 - src

    def _flow_weight(self, flow_name: str) -> float:
        return 1.0 if self.is_transposed(flow_name) else self.off_factor


class BurstyTrafficGenerator(FlowTrafficGenerator):
    """The paper's rates modulated by per-flow on/off bursts.

    Each flow carries a two-state Markov process: bursts last
    ``burst_length`` cycles on average, the long-run fraction of ON time is
    ``duty``, and while ON the flow injects at ``rate / duty`` so the
    long-run average rate matches the ``flows`` scenario.  A flow whose
    nominal rate exceeds ``duty`` cannot be burst-compressed (it would need
    more than one packet per ON cycle), so rates are capped at ``duty`` —
    the cap is applied to :attr:`flow_rates` itself, keeping the reported
    offered load equal to what the process actually injects.  State
    transitions and injection draws both come from the seeded instance
    RNG, in sorted-flow order, so the process is reproducible.
    """

    scenario = "bursty"

    def __init__(
        self,
        design: NocDesign,
        *,
        injection_scale: float = 1.0,
        tech: Optional[TechnologyParameters] = None,
        seed: int = 0,
        burst_length: float = 10.0,
        duty: float = 0.3,
    ):
        if burst_length < 1:
            raise SimulationError(
                f"mean burst length must be at least 1 cycle, got {burst_length}"
            )
        if not 0 < duty < 1:
            raise SimulationError(f"duty cycle must be in (0, 1), got {duty}")
        self.burst_length = burst_length
        self.duty = duty
        #: ON -> OFF transition probability (mean burst of burst_length cycles).
        self._p_off = 1.0 / burst_length
        #: OFF -> ON probability chosen so the stationary ON fraction is
        #: duty; capped at 1 (a high duty with short bursts would otherwise
        #: ask for a probability above 1 — the process then turns ON on the
        #: next cycle, the closest realisable behaviour).
        self._p_on = min(duty / (burst_length * (1.0 - duty)), 1.0)
        super().__init__(design, injection_scale=injection_scale, tech=tech, seed=seed)
        self._on: Dict[str, bool] = {
            name: self._rng.random() < duty for name in self._flow_order
        }

    def _compute_rates(self) -> Dict[str, float]:
        # Cap at the duty cycle: while ON the flow injects at rate / duty,
        # which must stay a probability.  Applying the cap here (not in
        # _firing) keeps offered_flits_per_cycle truthful about the load
        # the process can actually offer.
        return {
            name: min(rate, self.duty)
            for name, rate in super()._compute_rates().items()
        }

    def _firing(self) -> List[str]:
        # Per flow, in flow-name order: one state-transition draw, then an
        # injection draw only while ON.
        draw = self._rng.random
        p_off, p_on, duty = self._p_off, self._p_on, self.duty
        states = self._on
        fired: List[str] = []
        for name, rate in self._draw_rates:
            on = states[name]
            if on:
                if draw() < p_off:
                    on = False
            elif draw() < p_on:
                on = True
            states[name] = on
            if on and draw() < rate / duty:
                fired.append(name)
        return fired


# ----------------------------------------------------------------------
# registrations
# ----------------------------------------------------------------------

traffic_scenarios.register("flows", FlowTrafficGenerator)
traffic_scenarios.register("uniform", UniformTrafficGenerator)
traffic_scenarios.register("hotspot", HotspotTrafficGenerator)
traffic_scenarios.register("transpose", TransposeTrafficGenerator)
traffic_scenarios.register("bursty", BurstyTrafficGenerator)
traffic_scenarios.register("trace", TraceTrafficGenerator)
