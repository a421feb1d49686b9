"""Application-specific switch network construction.

Stand-in for the external topology-synthesis tool the paper uses to generate
its input designs.  The flow is the standard one for custom NoC synthesis:

1. cluster cores onto switches weighted by their mutual bandwidth
   (:mod:`repro.synthesis.partition`);
2. connect the switches with a traffic-weighted spanning backbone so every
   flow has a path;
3. spend an extra-link budget on direct links between the switch pairs that
   exchange the most traffic, subject to a switch-degree budget (custom
   NoCs keep switch radix small because crossbar area grows quadratically);
4. route every flow on a congestion-aware deterministic shortest path.

Step 3 is what makes the resulting designs interesting for deadlock
analysis: shortcut links superimposed on the backbone create cyclic channel
dependencies for sufficiently dense traffic, which is exactly the situation
the paper's removal algorithm targets.

:func:`synthesize_design` is the one synthesis entry point.  A
:class:`SynthesisConfig` with a ``topology_family`` goes to that
parameterized generator (:mod:`repro.synthesis.families`) instead of
steps 1–4.  The experiment API builds the config from a
:class:`~repro.api.spec.RunSpec` in
:func:`repro.analysis.experiments.compare_methods`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.api.registry import routing_engines, topology_families
from repro.domains import NON_NEGATIVE, Domains, at_least
from repro.errors import SynthesisError
from repro.model.design import NocDesign
from repro.model.topology import Topology
from repro.model.traffic import CommunicationGraph
from repro.model.validation import validate_design
from repro.routing.shortest_path import DEFAULT_CONGESTION_FACTOR, compute_routes
from repro.routing.turns import compute_updown_routes
from repro.synthesis.floorplan import assign_link_lengths
from repro.synthesis.partition import partition_cores

ROUTING_SHORTEST = "shortest"
ROUTING_UPDOWN = "updown"
_ROUTINGS = (ROUTING_SHORTEST, ROUTING_UPDOWN)


@dataclass
class SynthesisConfig:
    """Knobs of the topology synthesizer.

    Attributes
    ----------
    n_switches:
        Number of switches of the generated topology.
    extra_link_fraction:
        Size of the shortcut-link budget as a fraction of the switch count
        (0.0 gives a pure spanning backbone, larger values give denser,
        more cycle-prone topologies).
    max_switch_degree:
        Maximum number of distinct neighbour switches a switch may have
        after adding shortcut links (the backbone itself is exempt because
        connectivity must be guaranteed).
    routing:
        ``"shortest"`` (congestion-aware shortest path, the default — may
        produce cyclic CDGs) or ``"updown"`` (turn-restricted, always
        acyclic; used for comparison).
    balance_slack:
        Passed to :func:`repro.synthesis.partition.partition_cores`.
    congestion_factor:
        Passed to :func:`repro.routing.shortest_path.compute_routes` (0
        routes on hop count).
    routing_engine:
        Shortest-path engine name from
        :data:`repro.api.registry.routing_engines` (``"indexed"`` by
        default; ``"legacy"`` is the seed path-tuple search).  Both produce
        identical routes — the knob exists for cross-checking and
        benchmarking.
    topology_family:
        When set, the topology comes from the named
        :data:`repro.api.registry.topology_families` generator instead of
        the application-specific pipeline; ``n_switches`` must then equal
        the family's closed-form size at ``family_params``.
    family_params:
        Parameters of the topology family (e.g. ``{"k": 8}`` for
        ``fat_tree``; a ``"routing"`` entry overrides the family's default
        routing mode).  Only meaningful with ``topology_family``.
    """

    n_switches: int
    extra_link_fraction: float = 0.5
    max_switch_degree: int = 4
    routing: str = ROUTING_SHORTEST
    balance_slack: int = 1
    congestion_factor: float = DEFAULT_CONGESTION_FACTOR
    routing_engine: str = "indexed"
    topology_family: Optional[str] = None
    family_params: Dict[str, Any] = field(default_factory=dict)

    #: The knobs' bounds; each knob's kind is its annotation (:mod:`repro.domains`).
    domains = Domains("synthesis config", SynthesisError, n_switches=at_least(1),
                      extra_link_fraction=NON_NEGATIVE, max_switch_degree=at_least(2),
                      routing=_ROUTINGS, balance_slack=NON_NEGATIVE,
                      congestion_factor=NON_NEGATIVE, routing_engine=routing_engines,
                      topology_family=topology_families)

    def __post_init__(self):
        self.domains.check(self.__dict__)
        self.family_params = dict(self.family_params)
        if self.family_params and self.topology_family is None:
            raise SynthesisError(
                "family_params given without a topology_family to apply them to"
            )


def _inter_switch_traffic(
    traffic: CommunicationGraph, core_map: Dict[str, str]
) -> Dict[Tuple[str, str], float]:
    """Directed switch-to-switch bandwidth matrix (sparse dictionary)."""
    matrix: Dict[Tuple[str, str], float] = {}
    for flow in traffic.flows:
        src_switch = core_map[flow.src]
        dst_switch = core_map[flow.dst]
        if src_switch == dst_switch:
            continue
        key = (src_switch, dst_switch)
        matrix[key] = matrix.get(key, 0.0) + flow.bandwidth
    return matrix


def _symmetric_weights(
    matrix: Dict[Tuple[str, str], float]
) -> Dict[Tuple[str, str], float]:
    """Undirected pair weights (sum of both directions), key is sorted pair."""
    weights: Dict[Tuple[str, str], float] = {}
    for (src, dst), value in matrix.items():
        key = (min(src, dst), max(src, dst))
        weights[key] = weights.get(key, 0.0) + value
    return weights


def _maximum_spanning_backbone(
    switches: List[str], weights: Dict[Tuple[str, str], float]
) -> List[Tuple[str, str]]:
    """Maximum-weight spanning forest, completed into a tree.

    A Kruskal-style greedy pass over pairs sorted by descending weight keeps
    the heaviest-talking switches adjacent; switch pairs that never talk get
    zero weight and are only used to stitch disconnected components
    together, in deterministic name order.
    """
    parent = {switch: switch for switch in switches}

    def find(node: str) -> str:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(a: str, b: str) -> bool:
        root_a, root_b = find(a), find(b)
        if root_a == root_b:
            return False
        parent[root_b] = root_a
        return True

    edges: List[Tuple[str, str]] = []
    candidates = sorted(weights.items(), key=lambda item: (-item[1], item[0]))
    for (a, b), _weight in candidates:
        if union(a, b):
            edges.append((a, b))
    # Stitch any remaining components together (cores that never talk to
    # each other still need a connected network).
    for i in range(len(switches) - 1):
        a, b = switches[i], switches[i + 1]
        if union(a, b):
            edges.append((a, b))
    return edges


def _undirected_degree(topology: Topology, switch: str) -> int:
    """Number of distinct neighbour switches (either link direction)."""
    neighbors = set(topology.neighbors(switch))
    neighbors.update(link.src for link in topology.in_links(switch))
    return len(neighbors)


def build_switch_network(
    traffic: CommunicationGraph,
    core_map: Dict[str, str],
    config: SynthesisConfig,
    *,
    name: str = "synthesized",
) -> Topology:
    """Build the switch-level topology (steps 2 and 3 of the pipeline)."""
    switches = sorted({core_map[core] for core in core_map})
    topology = Topology(name)
    topology.add_switches(switches)

    matrix = _inter_switch_traffic(traffic, core_map)
    weights = _symmetric_weights(matrix)
    backbone = _maximum_spanning_backbone(switches, weights)
    backbone_set = set()
    for a, b in backbone:
        topology.add_bidirectional_link(a, b)
        backbone_set.add((min(a, b), max(a, b)))

    budget = int(round(config.extra_link_fraction * len(switches)))
    if budget <= 0:
        return topology
    candidates = sorted(
        (pair for pair in weights if pair not in backbone_set),
        key=lambda pair: (-weights[pair], pair),
    )
    added = 0
    for a, b in candidates:
        if added >= budget:
            break
        if (
            _undirected_degree(topology, a) >= config.max_switch_degree
            or _undirected_degree(topology, b) >= config.max_switch_degree
        ):
            continue
        topology.add_bidirectional_link(a, b)
        added += 1
    return topology


def synthesize_design(
    traffic: CommunicationGraph,
    config: SynthesisConfig,
    *,
    name: Optional[str] = None,
) -> NocDesign:
    """Run the full synthesis pipeline and return a routed, validated design.

    A config with :attr:`SynthesisConfig.topology_family` set dispatches to
    the family generator instead of the application-specific pipeline.
    """
    if config.topology_family is not None:
        from repro.synthesis.families import build_family_design  # local: keep import light

        return build_family_design(
            traffic,
            family=config.topology_family,
            params=config.family_params,
            n_switches=config.n_switches,
            routing_engine=config.routing_engine,
            name=name,
        )

    core_map = partition_cores(
        traffic, config.n_switches, balance_slack=config.balance_slack
    )
    design_name = name or f"{traffic.name}_{config.n_switches}sw"
    topology = build_switch_network(traffic, core_map, config, name=design_name)
    design = NocDesign(
        name=design_name,
        topology=topology,
        traffic=traffic.copy(),
        core_map=dict(core_map),
    )
    if config.routing == ROUTING_UPDOWN:
        compute_updown_routes(design)
    else:
        compute_routes(
            design,
            congestion_factor=config.congestion_factor,
            engine=config.routing_engine,
        )
    assign_link_lengths(design)
    validate_design(design)
    return design
