"""Equivalence and performance-regression tests for the routing engines.

The indexed engine (`repro.perf.route_engine`) must return *identical*
routes to the legacy path-tuple search on every input — this suite checks
that on random topologies (hypothesis), on synthesized benchmark designs,
through the ``cross_check`` debug flag, and pins down the complexity fix
with a wall-clock bound on the 8x8 mesh that the legacy search needed
seconds of exponential tie expansion for.
"""

from __future__ import annotations

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.registry import routing_engines, topology_families
from repro.errors import RouteError
from repro.model.design import NocDesign
from repro.model.topology import Topology
from repro.model.traffic import CommunicationGraph
from repro.routing.shortest_path import (
    ENGINE_INDEXED,
    ENGINE_LEGACY,
    compute_routes,
    shortest_route,
)
from repro.synthesis.builder import SynthesisConfig, synthesize_design

SWITCHES = [f"S{i}" for i in range(6)]


@st.composite
def random_strongly_connected_topology(draw) -> Topology:
    """A random directed topology containing a Hamiltonian cycle.

    The base cycle keeps every pair reachable so compute_routes never has
    to deal with unreachable flows; random extra links (drawn from all
    ordered pairs) create the equal-cost path diversity that distinguishes
    the tie-breaking behaviour of the two engines.
    """
    n = draw(st.integers(min_value=3, max_value=6))
    switches = SWITCHES[:n]
    topology = Topology("random")
    topology.add_switches(switches)
    for i in range(n):
        topology.add_link(switches[i], switches[(i + 1) % n])
    pairs = [(a, b) for a in switches for b in switches if a != b]
    extras = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs))
    )
    for a, b in extras:
        if topology.find_link(a, b) is None:
            topology.add_link(a, b)
    return topology


@st.composite
def random_design(draw) -> NocDesign:
    """A routed-traffic design over a random strongly connected topology."""
    topology = draw(random_strongly_connected_topology())
    switches = topology.switches
    traffic = CommunicationGraph("random_traffic")
    n_cores = draw(st.integers(min_value=2, max_value=8))
    core_map = {}
    for i in range(n_cores):
        core = f"c{i}"
        traffic.add_core(core)
        core_map[core] = draw(st.sampled_from(switches))
    n_flows = draw(st.integers(min_value=1, max_value=10))
    endpoints = st.integers(min_value=0, max_value=n_cores - 1)
    for i in range(n_flows):
        src = draw(endpoints)
        dst = draw(endpoints.filter(lambda d, s=src: d != s))
        bandwidth = draw(
            st.floats(min_value=0.1, max_value=500.0, allow_nan=False, allow_infinity=False)
        )
        traffic.add_flow(f"f{i}", f"c{src}", f"c{dst}", bandwidth=bandwidth)
    return NocDesign(
        name="random", topology=topology, traffic=traffic, core_map=core_map
    )


class TestShortestRouteEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(
        topology=random_strongly_connected_topology(),
        pair=st.tuples(st.integers(0, 5), st.integers(0, 5)),
        data=st.data(),
    )
    def test_single_pair_routes_identical(self, topology, pair, data):
        switches = topology.switches
        source = switches[pair[0] % len(switches)]
        target = switches[pair[1] % len(switches)]
        if source == target:
            return
        weights = {}
        for link in topology.links:
            weights[link] = data.draw(
                st.floats(min_value=0.1, max_value=10.0, allow_nan=False),
                label=f"w[{link.name}]",
            )
        legacy = shortest_route(topology, source, target, link_weights=weights, engine=ENGINE_LEGACY)
        indexed = shortest_route(topology, source, target, link_weights=weights, engine=ENGINE_INDEXED)
        assert indexed == legacy

    def test_negative_congestion_factor_stays_equivalent(self, d26_traffic):
        # A negative factor can push link weights to zero or below, outside
        # the indexed engine's soundness argument — the indexed entry must
        # serve such inputs through the reference search.
        base = synthesize_design(d26_traffic, SynthesisConfig(n_switches=8))
        legacy = base.copy()
        indexed = base.copy()
        compute_routes(legacy, congestion_factor=-2.0, engine=ENGINE_LEGACY)
        compute_routes(indexed, congestion_factor=-2.0, engine=ENGINE_INDEXED)
        assert indexed.routes == legacy.routes

    def test_non_positive_weights_fall_back_to_legacy(self):
        # Outside the indexed engine's equivalence argument: the call must
        # still succeed (served by the legacy search) and stay consistent.
        topology = topology_families.get("mesh").build({"rows": 2, "cols": 2}).topology
        link = topology.links[0]
        route = shortest_route(
            topology, "sw_0_0", "sw_1_1", link_weights={link: 0.0}
        )
        legacy = shortest_route(
            topology, "sw_0_0", "sw_1_1", link_weights={link: 0.0}, engine=ENGINE_LEGACY
        )
        assert route == legacy


class TestComputeRoutesEquivalence:
    @settings(max_examples=100, deadline=None)
    @given(design=random_design(), mode=st.sampled_from(["hops", "congestion"]))
    def test_route_sets_identical(self, design, mode):
        legacy = design.copy()
        indexed = design.copy()
        compute_routes(legacy, weight_mode=mode, engine=ENGINE_LEGACY)
        compute_routes(indexed, weight_mode=mode, engine=ENGINE_INDEXED)
        assert indexed.routes == legacy.routes

    @pytest.mark.parametrize("traffic_fixture", ["d26_traffic", "d36_8_traffic"])
    def test_synthesized_benchmarks_identical(self, traffic_fixture, request):
        traffic = request.getfixturevalue(traffic_fixture)
        indexed = synthesize_design(traffic, SynthesisConfig(n_switches=12))
        legacy = synthesize_design(
            traffic, SynthesisConfig(n_switches=12, routing_engine=ENGINE_LEGACY)
        )
        assert indexed.routes == legacy.routes
        assert indexed.topology == legacy.topology

    def test_overwrite_false_preserved_routes_affect_congestion(self, d26_traffic):
        base = synthesize_design(d26_traffic, SynthesisConfig(n_switches=10))
        # Drop half the routes, recompute with overwrite=False on copies.
        for design_engine in (ENGINE_LEGACY, ENGINE_INDEXED):
            partial = base.copy()
            for i, name in enumerate(partial.routes.flow_names):
                if i % 2 == 0:
                    partial.routes.remove_route(name)
            compute_routes(partial, overwrite=False, engine=design_engine)
            if design_engine == ENGINE_LEGACY:
                reference = partial.routes
        assert partial.routes == reference


class TestCrossCheck:
    def test_cross_check_passes_on_benchmark_design(self, d26_traffic):
        design = synthesize_design(d26_traffic, SynthesisConfig(n_switches=8))
        design.routes = type(design.routes)()
        compute_routes(design, cross_check=True)

    def test_cross_check_detects_divergent_engine(self, small_mesh_design):
        def _bogus(design, *, weight_mode, congestion_factor, overwrite):
            # Correct routes, but silently drops one flow — the kind of
            # subtle divergence the cross-check exists to catch.
            routes = routing_engines.get(ENGINE_INDEXED)(
                design,
                weight_mode=weight_mode,
                congestion_factor=congestion_factor,
                overwrite=overwrite,
            )
            routes.remove_route(routes.flow_names[0])
            return routes

        routing_engines.register("bogus", _bogus)
        try:
            design = small_mesh_design
            design.routes = type(design.routes)()
            with pytest.raises(RouteError, match="diverged from the reference"):
                compute_routes(
                    design,
                    weight_mode="congestion",
                    engine="bogus",
                    cross_check=True,
                )
        finally:
            routing_engines.unregister("bogus")

    def test_unknown_engine_rejected(self, small_mesh_design):
        with pytest.raises(RouteError, match="unknown routing engine"):
            compute_routes(small_mesh_design, engine="warp-drive")
        with pytest.raises(RouteError, match="single-pair routing engine"):
            shortest_route(
                small_mesh_design.topology, "sw_0_0", "sw_1_1", engine="warp-drive"
            )

    def test_third_party_engine_rejected_by_single_pair_search(self, small_mesh_design):
        # A registered engine is a *design-level* loop; shortest_route must
        # refuse it rather than silently substituting the indexed search.
        routing_engines.register("thirdparty", lambda design, **kwargs: design.routes)
        try:
            with pytest.raises(RouteError, match="single-pair routing engine"):
                shortest_route(
                    small_mesh_design.topology, "sw_0_0", "sw_1_1", engine="thirdparty"
                )
        finally:
            routing_engines.unregister("thirdparty")

    def test_builtin_engines_registered(self):
        names = routing_engines.names()
        assert ENGINE_INDEXED in names
        assert ENGINE_LEGACY in names


class TestMeshTimingRegression:
    def test_8x8_mesh_routing_completes_in_bounded_time(self):
        """The legacy search took ~1 s of exponential tie expansion here;
        the indexed engine must stay orders of magnitude under a bound
        loose enough for noisy CI machines."""
        n = 8
        topology = topology_families.get("mesh").build({"rows": n, "cols": n}).topology
        traffic = CommunicationGraph("complement")
        for x in range(n):
            for y in range(n):
                traffic.add_core(f"core_{x}_{y}")
        flow_id = 0
        for x in range(n):
            for y in range(n):
                tx, ty = n - 1 - x, n - 1 - y
                if (x, y) == (tx, ty):
                    continue
                traffic.add_flow(
                    f"f{flow_id}", f"core_{x}_{y}", f"core_{tx}_{ty}", bandwidth=50.0
                )
                flow_id += 1
        core_map = {
            f"core_{x}_{y}": f"sw_{x}_{y}" for x in range(n) for y in range(n)
        }
        design = NocDesign(
            name="mesh8", topology=topology, traffic=traffic, core_map=core_map
        )
        start = time.perf_counter()
        compute_routes(design, engine=ENGINE_INDEXED)
        elapsed = time.perf_counter() - start
        assert elapsed < 5.0, f"indexed mesh routing took {elapsed:.2f}s"
        assert len(design.routes) == flow_id
