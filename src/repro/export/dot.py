"""Graphviz DOT exporters and text reports."""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.cdg import ChannelDependencyGraph
from repro.core.cycles import cycle_edges
from repro.model.channels import Channel
from repro.model.design import NocDesign
from repro.model.topology import Topology


def _quote(name: str) -> str:
    """DOT identifier quoting (switch and channel names contain ``->``)."""
    escaped = name.replace("\"", "\\\"")
    return f'"{escaped}"'


def topology_to_dot(design_or_topology) -> str:
    """Render a topology (or a whole design) as a Graphviz ``digraph``.

    Switches become boxes; each physical link becomes one edge labelled with
    its VC count (links that gained VCs beyond the first are highlighted, so
    the effect of the removal algorithm is visible at a glance); cores, when
    a design is given, become ellipses attached to their switch.
    """
    if isinstance(design_or_topology, NocDesign):
        design: Optional[NocDesign] = design_or_topology
        topology: Topology = design_or_topology.topology
    else:
        design = None
        topology = design_or_topology

    lines: List[str] = [f"digraph {_quote(topology.name)} {{", "  rankdir=LR;"]
    lines.append("  node [shape=box, style=filled, fillcolor=lightsteelblue];")
    for switch in topology.switches:
        lines.append(f"  {_quote(switch)};")
    for link in topology.links:
        vcs = topology.vc_count(link)
        attributes = [f'label="{vcs} VC{"s" if vcs != 1 else ""}"']
        if link.index > 0:
            attributes.append("style=dashed")
            attributes.append("color=darkorange")
        elif vcs > 1:
            attributes.append("color=crimson")
            attributes.append("penwidth=2")
        lines.append(
            f"  {_quote(link.src)} -> {_quote(link.dst)} [{', '.join(attributes)}];"
        )
    if design is not None:
        lines.append("  node [shape=ellipse, style=filled, fillcolor=honeydew];")
        for core, switch in sorted(design.core_map.items()):
            lines.append(f"  {_quote(core)};")
            lines.append(f"  {_quote(core)} -> {_quote(switch)} [arrowhead=none, style=dotted];")
    lines.append("}")
    return "\n".join(lines)


def cdg_to_dot(
    cdg: ChannelDependencyGraph,
    *,
    highlight_cycle: Optional[Sequence[Channel]] = None,
) -> str:
    """Render a channel dependency graph as a Graphviz ``digraph``.

    Each edge is labelled with the flows that create it.
    ``highlight_cycle`` colours the vertices and edges of one cycle (as
    returned by :func:`repro.core.cycles.find_smallest_cycle`) in red — the
    Figure 2 view of a design's deadlock potential.
    """
    highlighted_nodes: Set[Channel] = set(highlight_cycle or ())
    highlighted_edges: Set[Tuple[Channel, Channel]] = set()
    if highlight_cycle:
        highlighted_edges = set(cycle_edges(list(highlight_cycle)))

    lines: List[str] = ['digraph "CDG" {', "  rankdir=LR;"]
    lines.append("  node [shape=oval, style=filled, fillcolor=whitesmoke];")
    for channel in cdg.channels:
        if channel in highlighted_nodes:
            lines.append(
                f"  {_quote(channel.name)} [fillcolor=mistyrose, color=crimson, penwidth=2];"
            )
        else:
            lines.append(f"  {_quote(channel.name)};")
    for first, second in cdg.edges:
        flows = sorted(cdg.flows_on_edge(first, second))
        attributes = [f'label="{", ".join(flows)}"']
        if (first, second) in highlighted_edges:
            attributes.append("color=crimson")
            attributes.append("penwidth=2")
        lines.append(
            f"  {_quote(first.name)} -> {_quote(second.name)} [{', '.join(attributes)}];"
        )
    lines.append("}")
    return "\n".join(lines)


def design_report(design: NocDesign) -> str:
    """A plain-text summary of a design: sizes, per-link VCs, per-flow routes."""
    topology = design.topology
    lines = [
        f"Design {design.name}",
        f"  switches       : {topology.switch_count}",
        f"  physical links : {topology.link_count}"
        f" ({topology.extra_parallel_link_count} added in parallel)",
        f"  channels       : {topology.channel_count}"
        f" ({topology.extra_vc_count} extra VCs)",
        f"  cores / flows  : {design.traffic.core_count} / {design.traffic.flow_count}",
        "",
        "  links:",
    ]
    for link in topology.links:
        lines.append(
            f"    {link.name:<20} VCs={topology.vc_count(link)} "
            f"length={topology.link_length(link):.2f} mm"
        )
    lines.append("")
    lines.append("  routes:")
    for flow_name, route in design.routes.items():
        path = " -> ".join(channel.name for channel in route)
        lines.append(f"    {flow_name:<12} {path}")
    return "\n".join(lines)
