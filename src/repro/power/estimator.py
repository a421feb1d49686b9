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
    port_counts: Optional[Dict[str, Dict[str, int]]] = None,
    link_load: Optional[Dict[Link, float]] = None,
) -> Dict[str, float]:
    """Average per-router load (0..1) derived from the routed bandwidth.

    ``port_counts`` and ``link_load`` let the fused estimation path share
    the design-level derivations it already computed.
    """
    capacity = tech.link_capacity_mbps
    loads: Dict[str, float] = {switch: 0.0 for switch in design.topology.switches}
    if port_counts is None:
        port_counts = design.switch_port_counts()
    if link_load is None:
        link_load = design.link_load()
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


def _estimate(
    design: NocDesign,
    tech: Optional[TechnologyParameters],
    *,
    want_power: bool,
    want_area: bool,
) -> Tuple[Optional[NocPowerReport], Optional[NocAreaReport]]:
    """Shared estimation core: derive each design-level input exactly once.

    Power and area both walk the same port counts, and power additionally
    needs the router loads and link loads; fusing the two report builds
    means one ``switch_port_counts``/``link_load``/``_router_loads`` pass
    serves both, instead of each public entry point re-deriving them.  The
    per-component float expressions are unchanged, so fused and standalone
    reports are identical.
    """
    tech = tech or TechnologyParameters()
    router_model = RouterPowerModel(tech)
    link_model = LinkPowerModel(tech)

    port_counts = design.switch_port_counts()
    topology = design.topology
    power_report: Optional[NocPowerReport] = None
    area_report: Optional[NocAreaReport] = None

    if want_power:
        power_report = NocPowerReport(design_name=design.name)
        link_load = design.link_load()
        loads = _router_loads(design, tech, port_counts, link_load)
        for switch in topology.switches:
            counts = port_counts[switch]
            power_report.router_power_mw[switch] = router_model.total_power_mw(
                counts["in_ports"], counts["out_ports"], counts["vcs"], loads[switch]
            )
        capacity = tech.link_capacity_mbps
        for link, bandwidth in link_load.items():
            length = topology.link_length(link)
            load = min(bandwidth / capacity, 1.0)
            power_report.link_power_mw[link] = link_model.total_power_mw(length, load)

    if want_area:
        area_report = NocAreaReport(design_name=design.name)
        for switch in topology.switches:
            counts = port_counts[switch]
            area_report.router_area_mm2[switch] = router_model.area_mm2(
                counts["in_ports"], counts["out_ports"], counts["vcs"]
            )
        for link in topology.links:
            length = topology.link_length(link)
            area_report.link_area_mm2[link] = link_model.area_mm2(length)

    return power_report, area_report


def estimate_power(
    design: NocDesign, *, tech: Optional[TechnologyParameters] = None
) -> NocPowerReport:
    """Estimate the power of every router and link of a design."""
    power, _ = _estimate(design, tech, want_power=True, want_area=False)
    return power


def estimate_area(
    design: NocDesign, *, tech: Optional[TechnologyParameters] = None
) -> NocAreaReport:
    """Estimate the silicon area of every router and link of a design."""
    _, area = _estimate(design, tech, want_power=False, want_area=True)
    return area


def estimate_power_and_area(
    design: NocDesign, *, tech: Optional[TechnologyParameters] = None
) -> Tuple[NocPowerReport, NocAreaReport]:
    """Both reports of a design from one pass over the derived inputs.

    Identical to calling :func:`estimate_power` and :func:`estimate_area`
    separately, but the router loads, port counts and link loads — the
    expensive design-level derivations — are computed once and shared.
    The evaluation pipeline reports both quantities for every design it
    touches, which previously doubled that work per sweep point.
    """
    return _estimate(design, tech, want_power=True, want_area=True)
