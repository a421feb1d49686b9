"""Parameterized topology families: datacenter-scale generators.

The paper's six SoC benchmarks top out at ~35 switches; stress-testing the
int-indexed subsystems (indexed routing, the ``context`` removal engine,
the compiled simulator) needs structured inputs 10-30x that size.  This
module provides them as entries of the :data:`repro.api.registry
.topology_families` registry — the same decorator/lazy-provider pattern as
the engines — so a :class:`~repro.api.spec.RunSpec`
(``topology_family`` + ``family_params``), the CLI and the library all
select one by name:

* ``ring`` — unidirectional (default) or bidirectional ring;
* ``mesh`` — 2D mesh, XY-routed by default (always deadlock free);
* ``torus`` — 2D torus (mesh plus wrap-around links);
* ``fat_tree`` — the k-ary fat tree of datacenter fabrics: ``k`` pods of
  ``k/2`` edge + ``k/2`` aggregation switches under ``(k/2)^2`` core
  switches (``5k^2/4`` switches total), up*/down*-routed by default;
* ``clos`` / ``vl2`` — a two-level leaf-spine Clos (the VL2 fabric's
  switching skeleton): every leaf connects to every spine,
  up*/down*-routed by default;
* ``dragonfly`` — fully connected router groups joined by a deterministic
  round-robin assignment of global links.

Every family builds a :class:`FamilyInstance`: the :class:`Topology` plus a
deterministic core-attachment order (``attach_points``), so the same
``(family, params, traffic)`` triple always produces byte-identical
designs.  A family declares its parameters as annotated class attributes
with bounds (:mod:`repro.domains`), and a request outside them, or an
infeasible one (odd fat-tree arity, a switch count that does not match the
family's closed form), raises :class:`~repro.errors.SynthesisError`
naming the family and its parameters.

:func:`build_family_design` is the full pipeline (build, attach, route,
validate); :func:`family_design` is its positional-argument convenience
form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional, Tuple

from repro.api.registry import topology_families
from repro.domains import Domains, at_least
from repro.errors import SynthesisError
from repro.model.design import NocDesign
from repro.model.topology import Topology
from repro.model.traffic import CommunicationGraph
from repro.model.validation import validate_design
from repro.routing.shortest_path import compute_routes
from repro.routing.turns import compute_updown_routes, compute_xy_routes

#: Routing modes a family instance may request (``family_params`` may
#: override a family's default with ``{"routing": ...}``).
FAMILY_ROUTING_SHORTEST = "shortest"
FAMILY_ROUTING_UPDOWN = "updown"
FAMILY_ROUTING_XY = "xy"
_FAMILY_ROUTINGS = (
    FAMILY_ROUTING_SHORTEST,
    FAMILY_ROUTING_UPDOWN,
    FAMILY_ROUTING_XY,
)


@dataclass
class FamilyInstance:
    """One built member of a topology family.

    Attributes
    ----------
    family:
        Registry name of the generating family.
    params:
        The normalized build parameters (validated, defaults filled in).
    topology:
        The freshly built switch network (owned by the caller).
    attach_points:
        Switch names in deterministic core-attachment order; cores are
        assigned round-robin over this tuple (sorted core order), so the
        attachment map is a pure function of ``(family, params, traffic)``.
    routing:
        Resolved routing mode (``"shortest"``, ``"updown"`` or ``"xy"``).
    updown_root:
        Root switch of the up*/down* BFS orientation (``None`` lets the
        router pick its default).
    max_cores_per_attach_point:
        Host capacity of one attach point (``None`` = unbounded); families
        with an explicit host count (dragonfly) bound the attachment here.
    """

    family: str
    params: Dict[str, Any]
    topology: Topology
    attach_points: Tuple[str, ...]
    routing: str = FAMILY_ROUTING_SHORTEST
    updown_root: Optional[str] = None
    max_cores_per_attach_point: Optional[int] = None

    def attach_cores(self, traffic: CommunicationGraph) -> Dict[str, str]:
        """Round-robin cores (sorted) over :attr:`attach_points`."""
        cores = sorted(traffic.cores)
        points = self.attach_points
        if self.max_cores_per_attach_point is not None:
            capacity = len(points) * self.max_cores_per_attach_point
            if len(cores) > capacity:
                raise SynthesisError(
                    f"{_describe(self.family, self.params)} attaches at most "
                    f"{capacity} cores ({len(points)} attach points x "
                    f"{self.max_cores_per_attach_point} hosts), "
                    f"but traffic {traffic.name!r} has {len(cores)}"
                )
        return {core: points[index % len(points)] for index, core in enumerate(cores)}


def _describe(family: str, params: Mapping[str, Any]) -> str:
    """``family(k=8, ...)`` — the error-message prefix naming the request."""
    rendered = ", ".join(f"{key}={params[key]!r}" for key in sorted(params))
    return f"topology family {family!r} ({rendered})" if rendered else f"topology family {family!r}"


class TopologyFamily:
    """Base class of the family generators (subclass and register instances).

    A subclass declares its parameters as annotated class attributes: the
    annotation is the kind, a class-level value the default (a parameter
    without one is required), and its ``domains`` the bounds
    (:mod:`repro.domains`), which extend its base's (every family takes a
    ``routing`` mode).  It implements the closed-form :meth:`_size` and the topology
    construction :meth:`_build`, and may refine :meth:`_check` for
    constraints across parameters (e.g. fat-tree arity parity).
    """

    #: Registry name (set per instance so clones like ``vl2`` keep their own).
    name = "family"
    #: Routing mode used when ``family_params`` does not override it.
    routing: str = FAMILY_ROUTING_SHORTEST
    domains = Domains(
        "topology family", SynthesisError, routing=(FAMILY_ROUTING_SHORTEST, FAMILY_ROUTING_UPDOWN)
    )

    def __init__(self, name: str):
        self.name = name

    # ------------------------------------------------------------------
    def describe(self, params: Mapping[str, Any]) -> str:
        return _describe(self.name, dict(params))

    def normalized_params(self, params: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
        """Validate ``params`` against the declaration; fill in the defaults."""
        given = {} if params is None else params
        label = self.describe(given if isinstance(given, Mapping) else {})
        normalized = self.domains.normalize(given, label=label)
        self._check(normalized)
        return normalized

    def _check(self, params: Dict[str, Any]) -> None:
        """Family-specific feasibility constraints (hook; default: none)."""

    # ------------------------------------------------------------------
    def size(self, params: Optional[Mapping[str, Any]] = None) -> int:
        """Closed-form switch count of the member ``params`` describes."""
        return self._size(self.normalized_params(params))

    def build(self, params: Optional[Mapping[str, Any]] = None) -> FamilyInstance:
        """Build a fresh :class:`FamilyInstance` (topology + attachment)."""
        normalized = self.normalized_params(params)
        topology = self._build(normalized)
        return FamilyInstance(
            family=self.name,
            params=normalized,
            topology=topology,
            attach_points=self._attach_points(normalized, topology),
            routing=normalized["routing"],
            updown_root=self._updown_root(normalized),
            max_cores_per_attach_point=self._host_capacity(normalized),
        )

    # ------------------------------------------------------------------
    def _size(self, params: Dict[str, Any]) -> int:
        raise NotImplementedError

    def _build(self, params: Dict[str, Any]) -> Topology:
        raise NotImplementedError

    def _attach_points(self, params: Dict[str, Any], topology: Topology) -> Tuple[str, ...]:
        """Core-attachment order; default: every switch, insertion order."""
        return tuple(topology.switches)

    def _updown_root(self, params: Dict[str, Any]) -> Optional[str]:
        return None

    def _host_capacity(self, params: Dict[str, Any]) -> Optional[int]:
        return None


# ----------------------------------------------------------------------
# The built-in families
# ----------------------------------------------------------------------

class RingFamily(TopologyFamily):
    """A ring of ``n_switches`` switches ``sw0 .. sw{n-1}``.

    ``bidirectional=False`` (the default) gives the classic deadlock-prone
    unidirectional configuration.
    """

    n_switches: int
    bidirectional: bool = False
    domains = Domains(n_switches=at_least(3))

    def _size(self, params: Dict[str, Any]) -> int:
        return params["n_switches"]

    def _build(self, params: Dict[str, Any]) -> Topology:
        n_switches = params["n_switches"]
        topology = Topology(f"ring{n_switches}")
        switches = [f"sw{i}" for i in range(n_switches)]
        topology.add_switches(switches)
        for i in range(n_switches):
            a = switches[i]
            b = switches[(i + 1) % n_switches]
            if params["bidirectional"]:
                topology.add_bidirectional_link(a, b)
            else:
                topology.add_link(a, b)
        return topology


class MeshFamily(TopologyFamily):
    """A ``rows x cols`` 2D mesh with switches named ``sw_x_y``."""

    routing = FAMILY_ROUTING_XY
    rows: int
    cols: int
    #: XY routing needs coordinate-named switches: meshes and tori only.
    domains = Domains(rows=at_least(1), cols=at_least(1), routing=_FAMILY_ROUTINGS)

    def _size(self, params: Dict[str, Any]) -> int:
        return params["rows"] * params["cols"]

    def _build(self, params: Dict[str, Any]) -> Topology:
        rows, cols = params["rows"], params["cols"]
        topology = Topology(f"mesh{rows}x{cols}")
        for x in range(cols):
            for y in range(rows):
                topology.add_switch(f"sw_{x}_{y}")
        for x in range(cols):
            for y in range(rows):
                if x + 1 < cols:
                    topology.add_bidirectional_link(f"sw_{x}_{y}", f"sw_{x + 1}_{y}")
                if y + 1 < rows:
                    topology.add_bidirectional_link(f"sw_{x}_{y}", f"sw_{x}_{y + 1}")
        return topology


class TorusFamily(MeshFamily):
    """A ``rows x cols`` 2D torus (mesh plus wrap-around links).

    Wrap-around links close a cycle in every dimension, so unlike the mesh
    the torus defaults to shortest-path routing and is a natural deadlock
    stressor at scale.
    """

    routing = FAMILY_ROUTING_SHORTEST
    domains = Domains(rows=at_least(3), cols=at_least(3))

    def _build(self, params: Dict[str, Any]) -> Topology:
        rows, cols = params["rows"], params["cols"]
        topology = super()._build(params)
        topology.name = f"torus{rows}x{cols}"
        for y in range(rows):
            topology.add_bidirectional_link(f"sw_{cols - 1}_{y}", f"sw_0_{y}")
        for x in range(cols):
            topology.add_bidirectional_link(f"sw_{x}_{rows - 1}", f"sw_{x}_0")
        return topology


class FatTreeFamily(TopologyFamily):
    """The k-ary fat tree: ``k`` pods under ``(k/2)^2`` core switches.

    Pod ``p`` has ``k/2`` edge switches (``pod{p}_edge{e}``, the core
    attach points) fully connected to ``k/2`` aggregation switches
    (``pod{p}_agg{a}``); aggregation switch ``a`` of every pod uplinks to
    core group ``a`` (``core{a*k/2} .. core{(a+1)*k/2 - 1}``).  Closed
    form: ``5k^2/4`` switches.  Default routing is up*/down* — the
    turn-restriction that makes multi-rooted trees deadlock free.
    """

    routing = FAMILY_ROUTING_UPDOWN
    k: int
    domains = Domains(k=at_least(2))

    def _check(self, params: Dict[str, Any]) -> None:
        if params["k"] % 2 != 0:
            raise SynthesisError(
                f"{self.describe(params)}: fat-tree arity k must be even "
                f"(k/2 edge and aggregation switches per pod), got k={params['k']}"
            )

    def _size(self, params: Dict[str, Any]) -> int:
        k = params["k"]
        return k * k + (k // 2) ** 2

    def _build(self, params: Dict[str, Any]) -> Topology:
        k = params["k"]
        half = k // 2
        topology = Topology(f"fat_tree_k{k}")
        topology.add_switches([f"core{i}" for i in range(half * half)])
        for p in range(k):
            topology.add_switches([f"pod{p}_agg{a}" for a in range(half)])
            topology.add_switches([f"pod{p}_edge{e}" for e in range(half)])
        for p in range(k):
            for e in range(half):
                for a in range(half):
                    topology.add_bidirectional_link(f"pod{p}_edge{e}", f"pod{p}_agg{a}")
            for a in range(half):
                for c in range(half):
                    topology.add_bidirectional_link(f"pod{p}_agg{a}", f"core{a * half + c}")
        return topology

    def _attach_points(self, params: Dict[str, Any], topology: Topology) -> Tuple[str, ...]:
        k = params["k"]
        half = k // 2
        return tuple(f"pod{p}_edge{e}" for p in range(k) for e in range(half))

    def _updown_root(self, params: Dict[str, Any]) -> Optional[str]:
        return "core0"


class ClosFamily(TopologyFamily):
    """A two-level leaf-spine Clos (the VL2 fabric's switching skeleton).

    Every leaf switch (``leaf{j}``, the core attach points) connects to
    every spine switch (``spine{i}``).  ``spines + leaves`` switches total;
    default routing is up*/down* rooted at ``spine0``.
    """

    routing = FAMILY_ROUTING_UPDOWN
    spines: int
    leaves: int
    domains = Domains(spines=at_least(1), leaves=at_least(2))

    def _size(self, params: Dict[str, Any]) -> int:
        return params["spines"] + params["leaves"]

    def _build(self, params: Dict[str, Any]) -> Topology:
        spines, leaves = params["spines"], params["leaves"]
        topology = Topology(f"{self.name}{spines}x{leaves}")
        topology.add_switches([f"spine{i}" for i in range(spines)])
        topology.add_switches([f"leaf{j}" for j in range(leaves)])
        for j in range(leaves):
            for i in range(spines):
                topology.add_bidirectional_link(f"leaf{j}", f"spine{i}")
        return topology

    def _attach_points(self, params: Dict[str, Any], topology: Topology) -> Tuple[str, ...]:
        return tuple(f"leaf{j}" for j in range(params["leaves"]))

    def _updown_root(self, params: Dict[str, Any]) -> Optional[str]:
        return "spine0"


class DragonflyFamily(TopologyFamily):
    """Fully connected router groups joined by round-robin global links.

    ``groups`` groups of ``routers`` routers (``g{g}_r{r}``); routers of a
    group are fully connected, and each group pair ``(gi, gj)`` gets one
    bidirectional global link whose endpoints rotate deterministically over
    the group's routers.  ``hosts`` bounds the cores attachable per router.
    """

    groups: int
    routers: int
    #: Four hosts per router when unspecified, the literature's usual a=2p.
    hosts: int = 4
    domains = Domains(groups=at_least(2), routers=at_least(2), hosts=at_least(1))

    def _size(self, params: Dict[str, Any]) -> int:
        return params["groups"] * params["routers"]

    def _build(self, params: Dict[str, Any]) -> Topology:
        groups, routers = params["groups"], params["routers"]
        topology = Topology(f"dragonfly{groups}x{routers}x{params['hosts']}")
        for g in range(groups):
            topology.add_switches([f"g{g}_r{r}" for r in range(routers)])
        for g in range(groups):
            for a in range(routers):
                for b in range(a + 1, routers):
                    topology.add_bidirectional_link(f"g{g}_r{a}", f"g{g}_r{b}")
        for gi in range(groups):
            for gj in range(gi + 1, groups):
                topology.add_bidirectional_link(
                    f"g{gi}_r{(gj - 1) % routers}", f"g{gj}_r{gi % routers}"
                )
        return topology

    def _host_capacity(self, params: Dict[str, Any]) -> Optional[int]:
        return params["hosts"]


# ----------------------------------------------------------------------
# Registrations (this module is the registry's lazy provider).
# ----------------------------------------------------------------------

topology_families.register("ring", RingFamily("ring"))
topology_families.register("mesh", MeshFamily("mesh"))
topology_families.register("torus", TorusFamily("torus"))
topology_families.register("fat_tree", FatTreeFamily("fat_tree"))
topology_families.register("clos", ClosFamily("clos"))
#: ``vl2`` is the datacenter-literature name of the same leaf-spine Clos;
#: a separate instance so designs built through either name record it.
topology_families.register("vl2", ClosFamily("vl2"))
topology_families.register("dragonfly", DragonflyFamily("dragonfly"))


# ----------------------------------------------------------------------
# Design construction on top of the registry
# ----------------------------------------------------------------------

def family_size(family: str, params: Optional[Mapping[str, Any]] = None) -> int:
    """Closed-form switch count of ``family`` at ``params``."""
    return topology_families.get(family).size(params)


def build_family_design(
    traffic: CommunicationGraph,
    *,
    family: str,
    params: Optional[Mapping[str, Any]] = None,
    n_switches: Optional[int] = None,
    routing_engine: str = "indexed",
    name: Optional[str] = None,
    core_map: Optional[Mapping[str, str]] = None,
) -> NocDesign:
    """Build, attach, route and validate one family member for ``traffic``.

    ``n_switches`` (when given, e.g. from :attr:`RunSpec.switch_count`)
    must equal the family's closed-form size — a mismatch raises
    :class:`SynthesisError` naming the family and parameters instead of
    silently building a different topology than the spec fingerprints.
    ``core_map`` overrides the family's round-robin attachment.
    """
    entry = topology_families.get(family)
    instance = entry.build(params)
    built = instance.topology.switch_count
    if n_switches is not None and n_switches != built:
        raise SynthesisError(
            f"{entry.describe(instance.params)} generates {built} switches, "
            f"but the synthesis config asks for {n_switches}; "
            f"set switch_count to the family's closed-form size"
        )
    design_name = name or f"{traffic.name}_{instance.topology.name}"
    topology = instance.topology
    topology.name = design_name
    design = NocDesign(
        name=design_name,
        topology=topology,
        traffic=traffic.copy(),
        core_map=dict(core_map) if core_map is not None else instance.attach_cores(traffic),
    )
    if instance.routing == FAMILY_ROUTING_UPDOWN:
        compute_updown_routes(design, root=instance.updown_root)
    elif instance.routing == FAMILY_ROUTING_XY:
        compute_xy_routes(design)
    else:
        compute_routes(design, congestion_factor=0.0, engine=routing_engine)
    validate_design(design)
    return design


def family_design(
    family: str,
    traffic: CommunicationGraph,
    params: Optional[Mapping[str, Any]] = None,
    *,
    name: Optional[str] = None,
    routing_engine: str = "indexed",
    core_map: Optional[Mapping[str, str]] = None,
) -> NocDesign:
    """Convenience constructor: one family member routed for ``traffic``."""
    return build_family_design(
        traffic,
        family=family,
        params=params,
        routing_engine=routing_engine,
        name=name,
        core_map=core_map,
    )
