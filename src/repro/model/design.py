"""The complete NoC design: topology + traffic + core mapping + routes.

:class:`NocDesign` is the object every stage of the library consumes and
produces: the topology synthesizer emits one, the deadlock-removal algorithm
and the resource-ordering baseline transform one, and the power models and
the wormhole simulator evaluate one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import DesignError
from repro.model.channels import Channel, Link
from repro.model.routes import RouteSet
from repro.model.topology import Topology
from repro.model.traffic import CommunicationGraph, Flow


@dataclass
class NocDesign:
    """A fully specified application-specific NoC.

    Parameters
    ----------
    name:
        Identifier used in reports.
    topology:
        The switch-level topology graph ``TG(S, L)``.
    traffic:
        The core-level communication graph ``G(V, E)``.
    core_map:
        Mapping from core name to the switch its network interface attaches
        to.  Every core that appears in a flow must be mapped.
    routes:
        Per-flow channel sequences.

    Simulation memoises what the runs of a grid share on the instance, one
    private attribute each: ``_sim_template``
    (:meth:`~repro.perf.sim_engine.SimulationTemplate.of`), ``_witness_cdg``
    (:func:`~repro.simulation.deadlock.check_cdg_witness`) and ``_protection``
    (the ``protection`` recovery policy's ``prepare``).  Each reader checks
    that its memo still matches the design; :meth:`copy` and pickling drop
    all three.
    """

    name: str
    topology: Topology
    traffic: CommunicationGraph
    core_map: Dict[str, str] = field(default_factory=dict)
    routes: RouteSet = field(default_factory=RouteSet)

    # ------------------------------------------------------------------
    # core mapping
    # ------------------------------------------------------------------
    def switch_of(self, core: str) -> str:
        """The switch a core attaches to."""
        try:
            return self.core_map[core]
        except KeyError:
            raise DesignError(f"core {core!r} is not attached to any switch") from None

    def cores_on(self, switch: str) -> List[str]:
        """Cores attached to ``switch``, sorted."""
        return sorted(core for core, sw in self.core_map.items() if sw == switch)

    # ------------------------------------------------------------------
    # convenience accessors
    # ------------------------------------------------------------------
    @property
    def flows(self) -> List[Flow]:
        """All flows of the design, sorted by name."""
        return self.traffic.flows

    @property
    def extra_vc_count(self) -> int:
        """Number of VCs added beyond the first VC of every link."""
        return self.topology.extra_vc_count

    @property
    def channel_count(self) -> int:
        """Total number of channels in the topology."""
        return self.topology.channel_count

    def channel_load(self) -> Dict[Channel, float]:
        """Aggregate bandwidth carried by every channel (MB/s).

        Channels not used by any route are reported with a load of ``0.0``
        so power models can iterate over the complete topology.
        """
        load: Dict[Channel, float] = {channel: 0.0 for channel in self.topology.channels()}
        for flow in self.traffic.flows:
            if not self.routes.has_route(flow.name):
                continue
            for channel in self.routes.route(flow.name):
                load[channel] = load.get(channel, 0.0) + flow.bandwidth
        return load

    def link_load(self) -> Dict[Link, float]:
        """Aggregate bandwidth carried by every physical link (MB/s)."""
        load: Dict[Link, float] = {link: 0.0 for link in self.topology.links}
        for channel, value in self.channel_load().items():
            load[channel.link] = load.get(channel.link, 0.0) + value
        return load

    def switch_port_counts(self) -> Dict[str, Dict[str, int]]:
        """Per-switch port statistics used by the power/area models.

        Returns a mapping ``switch -> {"in_ports", "out_ports", "vcs"}``
        where the port counts include one port per attached core (the NI
        port) and ``vcs`` is the total number of virtual channels over the
        switch's *input* ports (core ports count one VC each), mirroring how
        router buffer area scales.
        """
        stats: Dict[str, Dict[str, int]] = {}
        for switch in self.topology.switches:
            in_links = self.topology.in_links(switch)
            out_links = self.topology.out_links(switch)
            local_ports = len(self.cores_on(switch))
            input_vcs = sum(self.topology.vc_count(link) for link in in_links) + local_ports
            stats[switch] = {
                "in_ports": len(in_links) + local_ports,
                "out_ports": len(out_links) + local_ports,
                "vcs": input_vcs,
            }
        return stats

    # ------------------------------------------------------------------
    # pickling
    # ------------------------------------------------------------------
    def __getstate__(self):
        """Pickle only the declared fields.

        The simulation memos (see the class docstring) are per-process and
        rebuildable, so shipping them across process boundaries — every
        sweep worker returns designs through ``parallel_map`` — would only
        bloat the payload.
        """
        fields = self.__dataclass_fields__
        return {key: value for key, value in self.__dict__.items() if key in fields}

    # ------------------------------------------------------------------
    # copying
    # ------------------------------------------------------------------
    def copy(self, name: Optional[str] = None) -> "NocDesign":
        """Deep-enough copy: topology and routes are copied, traffic shared
        structure is copied, flows themselves are immutable.

        The copy carries none of the memos attached to this design (see the
        class docstring); it builds its own on first use.
        """
        return NocDesign(
            name=name or self.name,
            topology=self.topology.copy(),
            traffic=self.traffic.copy(),
            core_map=dict(self.core_map),
            routes=self.routes.copy(),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NocDesign(name={self.name!r}, switches={self.topology.switch_count}, "
            f"links={self.topology.link_count}, cores={self.traffic.core_count}, "
            f"flows={self.traffic.flow_count}, extra_vcs={self.extra_vc_count})"
        )
