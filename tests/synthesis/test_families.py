"""Tests for the topology-family layer (repro.synthesis.families)."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.registry import topology_families
from repro.benchmarks.synthetic import uniform_random_traffic
from repro.core.cdg import build_cdg
from repro.core.removal import remove_deadlocks
from repro.errors import PlanError, RegistryError, SynthesisError
from repro.model.validation import validate_design
from repro.routing.shortest_path import compute_routes
from repro.synthesis.builder import SynthesisConfig, synthesize_design
from repro.synthesis.families import (
    build_family_design,
    family_design,
    family_size,
)

#: Every built-in family, by registry name.
FAMILY_NAMES = ["ring", "mesh", "torus", "fat_tree", "clos", "vl2", "dragonfly"]

#: One small parameter point per family, used by the e2e checks.
SMALL_POINTS = {
    "ring": {"n_switches": 4},
    "mesh": {"rows": 3, "cols": 3},
    "torus": {"rows": 3, "cols": 3},
    "fat_tree": {"k": 2},
    "clos": {"spines": 2, "leaves": 4},
    "vl2": {"spines": 2, "leaves": 4},
    "dragonfly": {"groups": 3, "routers": 2},
}

#: Families whose links must all be bidirectional (the ring is the lone
#: family with a unidirectional variant).
SYMMETRIC_FAMILIES = ["mesh", "torus", "fat_tree", "clos", "vl2", "dragonfly"]

SETTINGS = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@st.composite
def family_points(draw):
    """Random (family, params) pairs over small sizes of every family."""
    family = draw(st.sampled_from(FAMILY_NAMES))
    if family == "ring":
        params = {
            "n_switches": draw(st.integers(min_value=3, max_value=12)),
            "bidirectional": draw(st.booleans()),
        }
    elif family in ("mesh", "torus"):
        low = 3 if family == "torus" else 1
        params = {
            "rows": draw(st.integers(min_value=low, max_value=5)),
            "cols": draw(st.integers(min_value=low, max_value=5)),
        }
        if family == "mesh" and params["rows"] * params["cols"] < 2:
            params["cols"] = 2
    elif family == "fat_tree":
        params = {"k": draw(st.sampled_from([2, 4, 6]))}
    elif family in ("clos", "vl2"):
        params = {
            "spines": draw(st.integers(min_value=1, max_value=4)),
            "leaves": draw(st.integers(min_value=2, max_value=6)),
        }
    else:  # dragonfly
        params = {
            "groups": draw(st.integers(min_value=2, max_value=4)),
            "routers": draw(st.integers(min_value=2, max_value=4)),
            "hosts": draw(st.integers(min_value=2, max_value=4)),
        }
    return family, params


def _closed_form(family: str, params: dict) -> int:
    if family == "ring":
        return params["n_switches"]
    if family in ("mesh", "torus"):
        return params["rows"] * params["cols"]
    if family == "fat_tree":
        return 5 * params["k"] ** 2 // 4
    if family in ("clos", "vl2"):
        return params["spines"] + params["leaves"]
    return params["groups"] * params["routers"]


class TestFamilyRegistry:
    def test_builtin_families_registered(self):
        assert topology_families.names() == sorted(FAMILY_NAMES)

    def test_unknown_family_raises(self):
        with pytest.raises(RegistryError, match="unknown topology family"):
            topology_families.get("hypercube")


class TestFamilyGeneratorProperties:
    @SETTINGS
    @given(point=family_points())
    def test_size_closed_form_holds(self, point):
        family, params = point
        instance = topology_families.get(family).build(params)
        assert family_size(family, params) == _closed_form(family, params)
        assert instance.topology.switch_count == _closed_form(family, params)

    @SETTINGS
    @given(point=family_points())
    def test_links_symmetric_where_required(self, point):
        family, params = point
        topology = topology_families.get(family).build(params).topology
        links = {(link.src, link.dst) for link in topology.links}
        if family in SYMMETRIC_FAMILIES or params.get("bidirectional"):
            assert all((dst, src) in links for src, dst in links)
        assert topology.is_connected()

    @SETTINGS
    @given(point=family_points(), seed=st.integers(min_value=0, max_value=20))
    def test_designs_validate_and_route_with_cross_check(self, point, seed):
        family, params = point
        size = family_size(family, params)
        traffic = uniform_random_traffic(2 * size, flows_per_core=2, seed=seed)
        design = family_design(family, traffic, params)
        validate_design(design)
        # Exercise the indexed router (against its legacy cross-check twin)
        # on the family's adjacency — multi-tree, torus and global-link
        # structures alike.
        compute_routes(design, congestion_factor=0.0, cross_check=True)
        validate_design(design)

    def test_attachment_is_deterministic(self, d26_traffic):
        one = family_design("fat_tree", d26_traffic, {"k": 4})
        two = family_design("fat_tree", d26_traffic, {"k": 4})
        assert one.core_map == two.core_map
        assert [link.name for link in one.topology.links] == [
            link.name for link in two.topology.links
        ]


class TestFamilyErrors:
    def test_odd_fat_tree_arity_rejected(self):
        with pytest.raises(SynthesisError, match=r"fat_tree.*k=5.*must be even"):
            family_size("fat_tree", {"k": 5})

    def test_unknown_parameter_named(self):
        with pytest.raises(SynthesisError, match=r"torus.*unknown parameter"):
            family_size("torus", {"rows": 3, "cols": 3, "depth": 2})

    def test_switch_count_mismatch_names_family(self, d26_traffic):
        with pytest.raises(SynthesisError, match=r"fat_tree.*k=4.*20 switches"):
            build_family_design(
                d26_traffic, family="fat_tree", params={"k": 4}, n_switches=14
            )

    def test_unknown_override_in_switch_count_synthesis(self):
        from repro.api.spec import RunSpec

        with pytest.raises(PlanError, match="unknown synthesis override.*bogus_knob"):
            RunSpec(benchmark="D26_media", switch_count=14, synthesis={"bogus_knob": 3})

    def test_family_mismatch_through_switch_count_synthesis(self, d26_traffic):
        config = SynthesisConfig(
            n_switches=14, topology_family="fat_tree", family_params={"k": 4}
        )
        with pytest.raises(SynthesisError, match="fat_tree"):
            synthesize_design(d26_traffic, config)

    def test_dragonfly_host_capacity_enforced(self):
        traffic = uniform_random_traffic(40, flows_per_core=1, seed=0)
        with pytest.raises(SynthesisError, match=r"dragonfly.*cores"):
            family_design(
                "dragonfly", traffic, {"groups": 2, "routers": 2, "hosts": 1}
            )

    def test_bad_routing_mode_rejected(self):
        with pytest.raises(SynthesisError, match="routing"):
            family_size("clos", {"spines": 2, "leaves": 4, "routing": "warp"})


class TestBuilderDispatch:
    def test_config_with_family_routes_through_generator(self, d26_traffic):
        config = SynthesisConfig(
            n_switches=9, topology_family="torus", family_params={"rows": 3, "cols": 3}
        )
        design = synthesize_design(d26_traffic, config)
        assert design.topology.switch_count == 9
        validate_design(design)

    def test_unknown_family_in_config_lists_available(self):
        with pytest.raises(SynthesisError, match="hypercube"):
            SynthesisConfig(n_switches=9, topology_family="hypercube")


class TestFamilyEndToEnd:
    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_small_instance_synthesize_remove_simulate(self, family):
        from repro.simulation.simulator import SimulationConfig, simulate_design

        params = SMALL_POINTS[family]
        size = family_size(family, params)
        traffic = uniform_random_traffic(2 * size, flows_per_core=2, seed=1)
        design = family_design(family, traffic, params)
        removal = remove_deadlocks(design)
        assert build_cdg(removal.design).is_acyclic()
        for scenario in ("flows", "trace"):
            config = SimulationConfig(
                injection_scale=0.5,
                seed=1,
                traffic_scenario=scenario,
                scenario_params={"trace_cycles": 300} if scenario == "trace" else {},
            )
            # cross_check=True runs compiled and interpreted engines and
            # raises on any statistics divergence.
            stats = simulate_design(
                removal.design, max_cycles=300, config=config, cross_check=True
            )
            assert stats.packets_delivered >= 0

    @pytest.mark.parametrize("family", FAMILY_NAMES)
    def test_removal_engines_agree_on_family_designs(self, family):
        traffic = uniform_random_traffic(
            2 * family_size(family, SMALL_POINTS[family]), flows_per_core=2, seed=2
        )
        design = family_design(family, traffic, SMALL_POINTS[family])
        results = [
            remove_deadlocks(design, engine=engine)
            for engine in ("context", "rebuild")
        ]
        def signature(result):
            return [
                (a.iteration, a.direction, a.cost, sorted(a.flows_rerouted))
                for a in result.actions
            ]

        reference = signature(results[0])
        for result in results[1:]:
            assert signature(result) == reference
            assert result.added_vc_count == results[0].added_vc_count

    def test_fat_tree_k8_end_to_end(self):
        """The acceptance-criteria point: k=8 (80 switches) full stack."""
        from repro.analysis.performance import measure_load_point
        from repro.simulation.simulator import SimulationConfig

        assert family_size("fat_tree", {"k": 8}) == 80
        traffic = uniform_random_traffic(160, flows_per_core=2, seed=0)
        design = family_design("fat_tree", traffic, {"k": 8})
        validate_design(design)
        removal = remove_deadlocks(design)
        assert build_cdg(removal.design).is_acyclic()
        metrics = measure_load_point(
            removal.design,
            SimulationConfig(injection_scale=0.5, seed=0),
            max_cycles=300,
            sim_engine="compiled",
        )
        assert metrics["packets_delivered"] > 0
