"""Traffic generation: turning flow bandwidths into injected packets.

Every flow injects packets with a Bernoulli process whose rate is derived
from the flow's bandwidth relative to the channel capacity of the
technology operating point, multiplied by a global ``injection_scale`` the
experiments use to push a design towards or beyond saturation (deadlocks in
cyclic designs only manifest under enough pressure).

:class:`FlowTrafficGenerator` is the paper's traffic (the ``"flows"``
scenario); :mod:`repro.simulation.scenarios` subclasses it with alternative
spatial and temporal injection patterns (uniform, hotspot, transpose,
bursty), all registered in the pluggable
:data:`repro.api.registry.traffic_scenarios` registry.  All generators draw
exclusively from one :class:`random.Random` seeded with an explicit
``seed`` (threaded from :attr:`repro.api.spec.RunSpec.seed` by the
experiment API), so repeated simulations of the same spec are reproducible.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

from repro.model.design import NocDesign
from repro.power.orion import TechnologyParameters
from repro.simulation.flit import Packet


class FlowTrafficGenerator:
    """Generates packets for every routed flow of a design.

    Parameters
    ----------
    design:
        The design being simulated (provides flows and routes).
    injection_scale:
        Multiplier on every flow's nominal rate.  1.0 injects at the
        bandwidths the traffic specification asks for; experiments that want
        to provoke deadlocks use values well above 1.
    tech:
        Technology parameters (channel capacity).
    seed:
        Seed of the Bernoulli draws — simulations are reproducible.  Every
        random decision of a generator comes from the instance RNG this
        seeds (never module-level randomness), so two generators built with
        the same arguments emit identical packet sequences.
    """

    #: Scenario name this generator is registered under.
    scenario = "flows"

    def __init__(
        self,
        design: NocDesign,
        *,
        injection_scale: float = 1.0,
        tech: Optional[TechnologyParameters] = None,
        seed: int = 0,
    ):
        self.design = design
        self.tech = tech or TechnologyParameters()
        self.injection_scale = injection_scale
        self.seed = seed
        self._rng = random.Random(seed)
        self._next_packet_id = 0
        self._rates: Dict[str, float] = self._compute_rates()
        self._flow_order: List[str] = sorted(self._rates)
        #: (flow name, rate) in draw order, so a cycle's draws are one sweep.
        self._draw_rates: List[Tuple[str, float]] = [
            (name, self._rates[name]) for name in self._flow_order
        ]

    # ------------------------------------------------------------------
    def _eligible_flows(self) -> List[str]:
        """Flows that inject traffic: routed ones plus same-switch locals."""
        design = self.design
        names: List[str] = []
        for flow in design.traffic.flows:
            if not design.routes.has_route(flow.name):
                # Flows between cores on the same switch never enter the
                # network but still inject traffic through the local NI.
                if design.switch_of(flow.src) != design.switch_of(flow.dst):
                    continue
            names.append(flow.name)
        return names

    def _compute_rates(self) -> Dict[str, float]:
        """Per-flow packet injection probabilities (the scenario hook).

        The base implementation is the paper's traffic: every flow's rate is
        proportional to its nominal bandwidth.  Scenario subclasses override
        this to redistribute the offered load spatially; the Bernoulli
        sampling in :meth:`_firing` is shared.
        """
        capacity = self.tech.link_capacity_mbps
        rates: Dict[str, float] = {}
        for name in self._eligible_flows():
            flow = self.design.traffic.flow(name)
            packets_per_cycle = (
                flow.bandwidth * self.injection_scale
                / (capacity * flow.packet_size_flits)
            )
            rates[name] = min(packets_per_cycle, 1.0)
        return rates

    # ------------------------------------------------------------------
    @property
    def flow_rates(self) -> Dict[str, float]:
        """Per-flow packet injection probabilities per cycle (copy)."""
        return dict(self._rates)

    @property
    def offered_flits_per_cycle(self) -> float:
        """Aggregate offered load: expected injected flits per cycle."""
        traffic = self.design.traffic
        return sum(
            rate * traffic.flow(name).packet_size_flits
            for name, rate in self._rates.items()
        )

    def _firing(self) -> List[str]:
        """Flows injecting a packet this cycle, in flow-name order.

        One Bernoulli draw per flow, in flow-name order, all from the
        instance RNG.  Temporal scenarios (e.g. bursty on/off modulation)
        override this hook; an override must keep drawing in flow-name
        order so it stays seed-deterministic.  Batched lanes that keep this
        implementation and start from one RNG state fire from one shared
        stream of these draws (:func:`repro.perf.batch_engine.run_batch`).
        """
        draw = self._rng.random
        return [name for name, rate in self._draw_rates if draw() < rate]

    def generate(self, cycle: int) -> List[Packet]:
        """Packets created at ``cycle`` (possibly empty), in flow-name order."""
        packets: List[Packet] = []
        for flow_name in self._firing():
            flow = self.design.traffic.flow(flow_name)
            if self.design.routes.has_route(flow_name):
                route_channels = self.design.routes.route(flow_name).channels
            else:
                route_channels = ()
            packet = Packet(
                packet_id=self._next_packet_id,
                flow_name=flow_name,
                route=route_channels,
                size_flits=flow.packet_size_flits,
                created_cycle=cycle,
            )
            self._next_packet_id += 1
            packets.append(packet)
        return packets
