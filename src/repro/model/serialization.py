"""JSON serialization of NoC designs.

The on-disk format is a single JSON document with four sections (topology,
traffic, core_map, routes).  It is deliberately flat and human-editable so
designs produced by external synthesis tools can be imported, which mirrors
how the paper treats topology synthesis as an external input.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.domains import NON_NEGATIVE, POSITIVE, Domains, at_least
from repro.errors import SerializationError
from repro.model.channels import Channel, Link
from repro.model.design import NocDesign
from repro.model.routes import Route, RouteSet
from repro.model.topology import Topology
from repro.model.traffic import CommunicationGraph

FORMAT_VERSION = 1


def design_to_dict(design: NocDesign) -> Dict[str, Any]:
    """Convert a design to a JSON-serializable dictionary."""
    topology = design.topology
    links = []
    for link in topology.links:
        links.append(
            {
                "src": link.src,
                "dst": link.dst,
                "index": link.index,
                "vc_count": topology.vc_count(link),
                "length_mm": topology.link_length(link),
            }
        )
    flows = []
    for flow in design.traffic.flows:
        flows.append(
            {
                "name": flow.name,
                "src": flow.src,
                "dst": flow.dst,
                "bandwidth": flow.bandwidth,
                "packet_size_flits": flow.packet_size_flits,
            }
        )
    routes = {}
    for flow_name, route in design.routes.items():
        routes[flow_name] = [
            {"src": ch.src, "dst": ch.dst, "index": ch.link.index, "vc": ch.vc}
            for ch in route
        ]
    return {
        "format_version": FORMAT_VERSION,
        "name": design.name,
        "topology": {
            "name": topology.name,
            "switches": topology.switches,
            "links": links,
        },
        "traffic": {
            "name": design.traffic.name,
            "cores": design.traffic.cores,
            "flows": flows,
        },
        "core_map": dict(sorted(design.core_map.items())),
        "routes": routes,
    }


class _DesignDocument:
    """A design document's sections: a class value is the default, none means
    required (see :mod:`repro.domains`)."""

    format_version: int = FORMAT_VERSION
    name: str = "design"
    topology: Dict[str, Any]
    traffic: Dict[str, Any]
    core_map: Dict[str, Any] = {}
    routes: Dict[str, Any] = {}
    domains = Domains("design", SerializationError)


class _TopologySection:
    """The ``topology`` section, declared as :class:`_DesignDocument` is."""

    name: str = "topology"
    switches: List[str]
    links: List[Dict[str, Any]]
    domains = Domains("design topology", SerializationError)


class _LinkEntry:
    """One entry of ``topology.links``; without ``length_mm`` a link is 1 mm."""

    src: str
    dst: str
    index: int = 0
    vc_count: int = 1
    length_mm: Optional[float] = None
    domains = Domains("design link", SerializationError, index=NON_NEGATIVE,
                      vc_count=at_least(1), length_mm=POSITIVE)


class _TrafficSection:
    """The ``traffic`` section."""

    name: str = "traffic"
    cores: List[str]
    flows: List[Dict[str, Any]]
    domains = Domains("design traffic", SerializationError)


class _FlowEntry:
    """One entry of ``traffic.flows``."""

    name: str
    src: str
    dst: str
    bandwidth: float = 1.0
    packet_size_flits: int = 8
    domains = Domains("design flow", SerializationError, bandwidth=POSITIVE,
                      packet_size_flits=at_least(1))


class _ChannelEntry:
    """One channel of a route in ``routes``."""

    src: str
    dst: str
    index: int = 0
    vc: int = 0
    domains = Domains("design route", SerializationError, index=NON_NEGATIVE, vc=NON_NEGATIVE)


def design_from_dict(data: Dict[str, Any]) -> NocDesign:
    """Rebuild a design from the dictionary produced by :func:`design_to_dict`.

    Every section and entry is checked against its declared fields; a
    malformed document raises :class:`~repro.errors.SerializationError`
    naming the field.
    """
    document = _DesignDocument.domains.normalize(data)
    version = document["format_version"]
    if version != FORMAT_VERSION:
        raise SerializationError(
            f"unsupported design format version {version} (expected {FORMAT_VERSION})"
        )
    topo_data = _TopologySection.domains.normalize(document["topology"])
    topology = Topology(topo_data["name"])
    topology.add_switches(topo_data["switches"])
    for position, entry in enumerate(topo_data["links"]):
        entry = _LinkEntry.domains.normalize(entry, label=f"design link {position}")
        topology.add_link(
            entry["src"],
            entry["dst"],
            index=entry["index"],
            vc_count=entry["vc_count"],
            length_mm=entry["length_mm"],
        )

    traffic_data = _TrafficSection.domains.normalize(document["traffic"])
    traffic = CommunicationGraph(traffic_data["name"])
    traffic.add_cores(traffic_data["cores"])
    for position, entry in enumerate(traffic_data["flows"]):
        entry = _FlowEntry.domains.normalize(entry, label=f"design flow {position}")
        traffic.add_flow(
            entry["name"], entry["src"], entry["dst"], entry["bandwidth"],
            entry["packet_size_flits"],
        )

    routes = RouteSet()
    for flow_name, channel_entries in document["routes"].items():
        if not isinstance(channel_entries, list):
            raise SerializationError(
                f"design: the route of flow {flow_name!r} must be a list, "
                f"got {channel_entries!r}"
            )
        channels = []
        for position, entry in enumerate(channel_entries):
            entry = _ChannelEntry.domains.normalize(
                entry, label=f"design route {flow_name!r} channel {position}"
            )
            channels.append(
                Channel(Link(entry["src"], entry["dst"], entry["index"]), entry["vc"])
            )
        routes.set_route(flow_name, Route(channels))

    return NocDesign(
        name=document["name"],
        topology=topology,
        traffic=traffic,
        core_map=dict(document["core_map"]),
        routes=routes,
    )


def save_design(design: NocDesign, path: Union[str, Path]) -> Path:
    """Write a design to ``path`` as JSON and return the path."""
    path = Path(path)
    try:
        path.write_text(json.dumps(design_to_dict(design), indent=2, sort_keys=True))
    except OSError as exc:
        raise SerializationError(f"could not write design to {path}: {exc}") from exc
    return path


def load_design(path: Union[str, Path]) -> NocDesign:
    """Read a design previously written by :func:`save_design`."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise SerializationError(f"could not read design from {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializationError(f"invalid JSON in {path}: {exc}") from exc
    return design_from_dict(data)
