"""NoC-level power and area estimation.

Aggregates the router and link models over a full
:class:`~repro.model.design.NocDesign`.  Per-router load is derived from the
bandwidth the routed flows actually push through each switch, relative to
the channel capacity of the technology operating point, so adding virtual
channels changes leakage/area directly and dynamic power only through the
(small) allocator term — the same behaviour ORION exhibits and the reason
the paper's VC savings translate into power savings.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from repro.model.channels import Link
from repro.model.design import NocDesign
from repro.power.link import LinkPowerModel
from repro.power.orion import RouterPowerModel, TechnologyParameters


@dataclass
class NocPowerReport:
    """Per-component and total power of a design, in milliwatts."""

    design_name: str
    router_power_mw: Dict[str, float] = field(default_factory=dict)
    link_power_mw: Dict[Link, float] = field(default_factory=dict)

    @property
    def total_router_power_mw(self) -> float:
        """Total power of all routers."""
        return sum(self.router_power_mw.values())

    @property
    def total_link_power_mw(self) -> float:
        """Total power of all links."""
        return sum(self.link_power_mw.values())

    @property
    def total_power_mw(self) -> float:
        """Total NoC power (routers + links)."""
        return self.total_router_power_mw + self.total_link_power_mw

    def summary(self) -> str:
        """Short human-readable report."""
        return (
            f"Power of {self.design_name!r}: {self.total_power_mw:.2f} mW "
            f"(routers {self.total_router_power_mw:.2f} mW, "
            f"links {self.total_link_power_mw:.2f} mW)"
        )


@dataclass
class NocAreaReport:
    """Per-component and total area of a design, in square millimetres."""

    design_name: str
    router_area_mm2: Dict[str, float] = field(default_factory=dict)
    link_area_mm2: Dict[Link, float] = field(default_factory=dict)

    @property
    def total_router_area_mm2(self) -> float:
        """Total area of all routers."""
        return sum(self.router_area_mm2.values())

    @property
    def total_link_area_mm2(self) -> float:
        """Total repeater area of all links."""
        return sum(self.link_area_mm2.values())

    @property
    def total_area_mm2(self) -> float:
        """Total NoC area (routers + link repeaters)."""
        return self.total_router_area_mm2 + self.total_link_area_mm2

    def summary(self) -> str:
        """Short human-readable report."""
        return (
            f"Area of {self.design_name!r}: {self.total_area_mm2:.3f} mm² "
            f"(routers {self.total_router_area_mm2:.3f} mm², "
            f"links {self.total_link_area_mm2:.3f} mm²)"
        )


def _router_loads(
    design: NocDesign,
    tech: TechnologyParameters,
    port_counts: Dict[str, Dict[str, int]],
    link_load: Dict[Link, float],
) -> Dict[str, float]:
    """Average per-router load (0..1) derived from the routed bandwidth."""
    capacity = tech.link_capacity_mbps
    loads: Dict[str, float] = {switch: 0.0 for switch in design.topology.switches}
    incoming_bw: Dict[str, float] = {switch: 0.0 for switch in design.topology.switches}
    for link, bandwidth in link_load.items():
        incoming_bw[link.dst] += bandwidth
    # Traffic injected locally also crosses the router once.
    for flow in design.traffic.flows:
        if design.routes.has_route(flow.name):
            incoming_bw[design.switch_of(flow.src)] += flow.bandwidth
    for switch, bandwidth in incoming_bw.items():
        ports = max(port_counts[switch]["in_ports"], 1)
        loads[switch] = min(bandwidth / (capacity * ports), 1.0)
    return loads


def estimate_power_and_area(
    design: NocDesign, *, tech: Optional[TechnologyParameters] = None
) -> Tuple[NocPowerReport, NocAreaReport]:
    """The power and the area report of a design, from one pass.

    Both reports walk the same port counts, and power also needs the link
    and router loads; each of these design-level inputs is derived once.
    The evaluation pipeline reports both quantities for every design it
    touches.
    """
    tech = tech or TechnologyParameters()
    router_model = RouterPowerModel(tech)
    link_model = LinkPowerModel(tech)
    port_counts = design.switch_port_counts()
    link_load = design.link_load()
    loads = _router_loads(design, tech, port_counts, link_load)
    topology = design.topology

    power_report = NocPowerReport(design_name=design.name)
    area_report = NocAreaReport(design_name=design.name)
    for switch in topology.switches:
        counts = port_counts[switch]
        power_report.router_power_mw[switch] = router_model.total_power_mw(
            counts["in_ports"], counts["out_ports"], counts["vcs"], loads[switch]
        )
        area_report.router_area_mm2[switch] = router_model.area_mm2(
            counts["in_ports"], counts["out_ports"], counts["vcs"]
        )
    capacity = tech.link_capacity_mbps
    for link, bandwidth in link_load.items():
        length = topology.link_length(link)
        load = min(bandwidth / capacity, 1.0)
        power_report.link_power_mw[link] = link_model.total_power_mw(length, load)
    for link in topology.links:
        area_report.link_area_mm2[link] = link_model.area_mm2(topology.link_length(link))
    return power_report, area_report


def estimate_power(
    design: NocDesign, *, tech: Optional[TechnologyParameters] = None
) -> NocPowerReport:
    """Estimate the power of every router and link of a design (the first
    half of :func:`estimate_power_and_area`)."""
    return estimate_power_and_area(design, tech=tech)[0]


def estimate_area(
    design: NocDesign, *, tech: Optional[TechnologyParameters] = None
) -> NocAreaReport:
    """Estimate the silicon area of every router and link of a design (the
    second half of :func:`estimate_power_and_area`)."""
    return estimate_power_and_area(design, tech=tech)[1]
