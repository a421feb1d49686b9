"""The communication graph ``G(V, E)`` — Definition 2.

Cores are plain string names; a :class:`Flow` is a directed communication
between two cores with an average bandwidth requirement.  The
:class:`CommunicationGraph` collects cores and flows and offers the queries
the synthesizer, the removal algorithm and the simulator need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import TrafficError


@dataclass(frozen=True)
class Flow:
    """A directed communication flow between two cores.

    Parameters
    ----------
    name:
        Unique identifier, e.g. ``"F1"`` or ``"cpu->mem0"``.
    src:
        Source core name.
    dst:
        Destination core name.
    bandwidth:
        Average required bandwidth in MB/s.  Only relative magnitudes matter
        for the algorithms in this library (route weighting, synthesis
        clustering, simulator injection rates).
    packet_size_flits:
        Nominal packet length used by the wormhole simulator.
    """

    name: str
    src: str
    dst: str
    bandwidth: float = 1.0
    packet_size_flits: int = 8

    def __post_init__(self):
        if not self.name:
            raise TrafficError("flow name must be non-empty")
        if not self.src or not self.dst:
            raise TrafficError(f"flow {self.name!r} must have non-empty endpoints")
        if self.src == self.dst:
            raise TrafficError(f"flow {self.name!r} connects a core to itself")
        if self.bandwidth <= 0:
            raise TrafficError(f"flow {self.name!r} must have positive bandwidth")
        if self.packet_size_flits < 1:
            raise TrafficError(f"flow {self.name!r} must have at least 1 flit per packet")


@dataclass
class CommunicationGraph:
    """Cores and the flows between them (Definition 2)."""

    name: str = "traffic"
    _cores: List[str] = field(default_factory=list)
    _core_set: set = field(default_factory=set)
    _flows: Dict[str, Flow] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # cores
    # ------------------------------------------------------------------
    def add_core(self, core: str) -> None:
        """Add a core; adding an existing core is an error."""
        if not core:
            raise TrafficError("core name must be non-empty")
        if core in self._core_set:
            raise TrafficError(f"core {core!r} already exists")
        self._core_set.add(core)
        self._cores.append(core)

    def add_cores(self, cores: Iterable[str]) -> None:
        """Add several cores at once."""
        for core in cores:
            self.add_core(core)

    def has_core(self, core: str) -> bool:
        """True when ``core`` is part of the graph."""
        return core in self._core_set

    @property
    def cores(self) -> List[str]:
        """Core names in insertion order (copy)."""
        return list(self._cores)

    @property
    def core_count(self) -> int:
        """Number of cores."""
        return len(self._cores)

    # ------------------------------------------------------------------
    # flows
    # ------------------------------------------------------------------
    def add_flow(
        self,
        name: str,
        src: str,
        dst: str,
        bandwidth: float = 1.0,
        packet_size_flits: int = 8,
    ) -> Flow:
        """Create and register a flow; endpoints must be known cores."""
        if not self.has_core(src):
            raise TrafficError(f"flow {name!r}: unknown source core {src!r}")
        if not self.has_core(dst):
            raise TrafficError(f"flow {name!r}: unknown destination core {dst!r}")
        if name in self._flows:
            raise TrafficError(f"flow {name!r} already exists")
        flow = Flow(name, src, dst, bandwidth, packet_size_flits)
        self._flows[name] = flow
        return flow

    def register_flow(self, flow: Flow) -> None:
        """Register an already-constructed :class:`Flow`."""
        if not self.has_core(flow.src):
            raise TrafficError(f"flow {flow.name!r}: unknown source core {flow.src!r}")
        if not self.has_core(flow.dst):
            raise TrafficError(f"flow {flow.name!r}: unknown destination core {flow.dst!r}")
        if flow.name in self._flows:
            raise TrafficError(f"flow {flow.name!r} already exists")
        self._flows[flow.name] = flow

    def flow(self, name: str) -> Flow:
        """Look up a flow by name."""
        try:
            return self._flows[name]
        except KeyError:
            raise TrafficError(f"unknown flow {name!r}") from None

    def has_flow(self, name: str) -> bool:
        """True when a flow with this name exists."""
        return name in self._flows

    @property
    def flows(self) -> List[Flow]:
        """All flows sorted by name (copy)."""
        return [self._flows[k] for k in sorted(self._flows)]

    @property
    def flow_count(self) -> int:
        """Number of flows."""
        return len(self._flows)

    def flows_from(self, core: str) -> List[Flow]:
        """Flows whose source is ``core``, sorted by name."""
        return [f for f in self.flows if f.src == core]

    def flows_to(self, core: str) -> List[Flow]:
        """Flows whose destination is ``core``, sorted by name."""
        return [f for f in self.flows if f.dst == core]

    def flows_between(self, src: str, dst: str) -> List[Flow]:
        """Flows from ``src`` to ``dst``, sorted by name."""
        return [f for f in self.flows if f.src == src and f.dst == dst]

    def bandwidth_between(self, src: str, dst: str) -> float:
        """Total bandwidth of all flows from ``src`` to ``dst``."""
        return sum(f.bandwidth for f in self.flows_between(src, dst))

    @property
    def total_bandwidth(self) -> float:
        """Sum of all flow bandwidths."""
        return sum(f.bandwidth for f in self._flows.values())

    def out_degree(self, core: str) -> int:
        """Number of distinct destination cores ``core`` sends to."""
        return len({f.dst for f in self.flows_from(core)})

    def in_degree(self, core: str) -> int:
        """Number of distinct source cores sending to ``core``."""
        return len({f.src for f in self.flows_to(core)})

    def __iter__(self) -> Iterator[Flow]:
        return iter(self.flows)

    def __len__(self) -> int:
        return len(self._flows)

    # ------------------------------------------------------------------
    # copying / display
    # ------------------------------------------------------------------
    def copy(self) -> "CommunicationGraph":
        """Copy of the graph (flows are immutable so a shallow copy suffices)."""
        clone = CommunicationGraph(self.name)
        clone._cores = list(self._cores)
        clone._core_set = set(self._core_set)
        clone._flows = dict(self._flows)
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CommunicationGraph(name={self.name!r}, cores={self.core_count}, "
            f"flows={self.flow_count})"
        )
