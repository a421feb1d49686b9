"""Shared fixtures for the test suite.

Expensive objects (synthesized benchmark designs) are module- or
session-scoped; the cheap ones (the paper's ring) are function-scoped so
tests can mutate them freely.
"""

from __future__ import annotations

import pytest

from repro.benchmarks.soc import d26_media, d36_8
from repro.benchmarks.synthetic import default_mesh_traffic, default_ring_traffic
from repro.examples_data.paper_ring import paper_ring_design
from repro.model.channels import Channel, Link
from repro.model.design import NocDesign
from repro.model.routes import Route, RouteSet
from repro.model.topology import Topology
from repro.model.traffic import CommunicationGraph
from repro.synthesis.builder import SynthesisConfig, synthesize_design
from repro.synthesis.families import family_design


@pytest.fixture
def ring_design_fixture() -> NocDesign:
    """The paper's 4-switch ring (Figures 1-4), fresh for every test."""
    return paper_ring_design()


@pytest.fixture
def simple_line_design() -> NocDesign:
    """A tiny 3-switch line with two flows — always deadlock free."""
    topology = Topology("line3")
    topology.add_switches(["A", "B", "C"])
    topology.add_bidirectional_link("A", "B")
    topology.add_bidirectional_link("B", "C")

    traffic = CommunicationGraph("line3_traffic")
    traffic.add_cores(["c0", "c1", "c2"])
    traffic.add_flow("f0", "c0", "c2", bandwidth=100.0)
    traffic.add_flow("f1", "c2", "c0", bandwidth=50.0)

    routes = RouteSet()
    ab = Channel(Link("A", "B"))
    bc = Channel(Link("B", "C"))
    cb = Channel(Link("C", "B"))
    ba = Channel(Link("B", "A"))
    routes.set_route("f0", Route([ab, bc]))
    routes.set_route("f1", Route([cb, ba]))

    return NocDesign(
        name="line3",
        topology=topology,
        traffic=traffic,
        core_map={"c0": "A", "c1": "B", "c2": "C"},
        routes=routes,
    )


@pytest.fixture
def small_mesh_design() -> NocDesign:
    """A 3x3 XY-routed mesh (acyclic CDG by construction)."""
    return family_design(
        "mesh",
        default_mesh_traffic(3, 3, name="mesh3x3_traffic"),
        {"rows": 3, "cols": 3, "routing": "xy"},
        name="mesh3x3",
        core_map={f"core_{x}_{y}": f"sw_{x}_{y}" for x in range(3) for y in range(3)},
    )


@pytest.fixture
def small_ring_design() -> NocDesign:
    """A 6-switch unidirectional ring with i -> i+2 flows (cyclic CDG)."""
    return family_design(
        "ring",
        default_ring_traffic(6, name="ring6_traffic"),
        {"n_switches": 6},
        name="ring6",
    )


@pytest.fixture(scope="session")
def d26_traffic() -> CommunicationGraph:
    """The D26_media benchmark traffic (session-scoped, read-only)."""
    return d26_media()


@pytest.fixture(scope="session")
def d36_8_traffic() -> CommunicationGraph:
    """The D36_8 benchmark traffic (session-scoped, read-only)."""
    return d36_8()


@pytest.fixture(scope="session")
def d26_design_14sw(d26_traffic) -> NocDesign:
    """A 14-switch synthesized design for D26_media (session-scoped).

    Tests must not mutate this fixture; they should ``copy()`` it first.
    """
    return synthesize_design(d26_traffic, SynthesisConfig(n_switches=14))


@pytest.fixture(scope="session")
def d36_8_design_14sw(d36_8_traffic) -> NocDesign:
    """A 14-switch synthesized design for D36_8 (session-scoped, cyclic CDG).

    Tests must not mutate this fixture; they should ``copy()`` it first.
    """
    return synthesize_design(d36_8_traffic, SynthesisConfig(n_switches=14))
