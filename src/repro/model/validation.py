"""Whole-design consistency checks.

The checks here are what make the library safe to compose: the topology
synthesizer, the deadlock remover, the resource-ordering baseline and the
simulator all call :func:`validate_design` at their boundaries so a broken
intermediate design is caught where it is produced rather than three stages
later.
"""

from __future__ import annotations

from typing import List

from repro.errors import ValidationError
from repro.model.channels import channels_are_adjacent
from repro.model.design import NocDesign


def validate_topology(design: NocDesign) -> List[str]:
    """Topology-level findings (empty list when healthy)."""
    problems: List[str] = []
    topology = design.topology
    if topology.switch_count == 0:
        problems.append("topology has no switches")
    if topology.switch_count > 1 and not topology.is_connected():
        problems.append("topology is not connected")
    for link in topology.links:
        if topology.vc_count(link) < 1:
            problems.append(f"link {link.name} has no virtual channels")
    return problems


def validate_core_mapping(design: NocDesign) -> List[str]:
    """Core-to-switch mapping findings."""
    problems: List[str] = []
    for core in design.traffic.cores:
        if core not in design.core_map:
            problems.append(f"core {core!r} is not attached to any switch")
        elif not design.topology.has_switch(design.core_map[core]):
            problems.append(
                f"core {core!r} is attached to unknown switch {design.core_map[core]!r}"
            )
    for core in design.core_map:
        if not design.traffic.has_core(core):
            problems.append(f"core mapping mentions unknown core {core!r}")
    return problems


def validate_routes(design: NocDesign) -> List[str]:
    """Route findings: existence, channel validity, endpoint correctness.

    Every flow needs a route, except one between cores on the same switch.
    """
    problems: List[str] = []
    topology = design.topology
    for flow in design.traffic.flows:
        if not design.routes.has_route(flow.name):
            src_sw = design.core_map.get(flow.src)
            dst_sw = design.core_map.get(flow.dst)
            if src_sw is None or src_sw != dst_sw:
                problems.append(f"flow {flow.name!r} has no route")
            continue
        route = design.routes.route(flow.name)
        # One pass per route: channel validity, contiguity (designs can
        # arrive through serialization or tools that bypass the Route
        # constructor) and duplicate-channel detection share the same walk —
        # validate_design brackets every removal run, so the route walk is
        # on a hot path and must not be paid three times per flow.
        previous = None
        contiguity_reported = False
        duplicate_reported = False
        seen = set()
        for channel in route:
            if not topology.has_link(channel.link):
                problems.append(
                    f"flow {flow.name!r}: route uses unknown link {channel.link.name}"
                )
            elif not topology.has_channel(channel):
                problems.append(
                    f"flow {flow.name!r}: route uses VC {channel.vc} on link "
                    f"{channel.link.name} but the link only has "
                    f"{topology.vc_count(channel.link)} VC(s)"
                )
            if (
                previous is not None
                and not contiguity_reported
                and not channels_are_adjacent(previous, channel)
            ):
                problems.append(
                    f"flow {flow.name!r}: route is not contiguous — "
                    f"{previous.name} is followed by {channel.name} but "
                    f"{previous.dst!r} != {channel.src!r}"
                )
                contiguity_reported = True
            previous = channel
            if not duplicate_reported:
                if channel in seen:
                    problems.append(
                        f"flow {flow.name!r}: route traverses channel {channel.name} twice"
                    )
                    duplicate_reported = True
                else:
                    seen.add(channel)
        src_switch = design.core_map.get(flow.src)
        dst_switch = design.core_map.get(flow.dst)
        if src_switch is not None and route.source_switch != src_switch:
            problems.append(
                f"flow {flow.name!r}: route starts at {route.source_switch!r} but the "
                f"source core {flow.src!r} is attached to {src_switch!r}"
            )
        if dst_switch is not None and route.destination_switch != dst_switch:
            problems.append(
                f"flow {flow.name!r}: route ends at {route.destination_switch!r} but the "
                f"destination core {flow.dst!r} is attached to {dst_switch!r}"
            )
    for flow_name in design.routes.flow_names:
        if not design.traffic.has_flow(flow_name):
            problems.append(f"route defined for unknown flow {flow_name!r}")
    return problems


def collect_problems(design: NocDesign) -> List[str]:
    """All findings from every validation pass."""
    problems = []
    problems.extend(validate_topology(design))
    problems.extend(validate_core_mapping(design))
    problems.extend(validate_routes(design))
    return problems


def validate_design(design: NocDesign) -> None:
    """Raise :class:`~repro.errors.ValidationError` when any check fails."""
    problems = collect_problems(design)
    if problems:
        raise ValidationError(problems)

