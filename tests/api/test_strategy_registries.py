"""Tests for the pluggable strategy registries (repro.api.registry)."""

import pytest

from repro.api.registry import (
    Registry,
    fault_models,
    ordering_strategies,
    removal_engines,
    traffic_scenarios,
)
from repro.core.removal import DeadlockRemover, remove_deadlocks
from repro.errors import OrderingError, RegistryError, RemovalError
from repro.routing.ordering import apply_resource_ordering
from repro.simulation.traffic_gen import FlowTrafficGenerator


class TestRegistry:
    def test_register_and_get(self):
        registry = Registry("thing")
        registry.register("a", 1)
        assert registry.get("a") == 1
        assert "a" in registry
        assert registry.names() == ["a"]
        assert len(registry) == 1

    def test_decorator_registration(self):
        registry = Registry("thing")

        @registry.register("fn")
        def implementation():
            return "ran"

        assert registry.get("fn") is implementation
        assert implementation() == "ran"

    def test_unknown_name_raises_with_available_list(self):
        registry = Registry("thing")
        registry.register("known", 1)
        with pytest.raises(RegistryError, match="unknown thing 'missing'.*known"):
            registry.get("missing")

    def test_duplicate_registration_rejected(self):
        registry = Registry("thing")
        registry.register("a", 1)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register("a", 2)

    def test_bad_names_rejected(self):
        registry = Registry("thing")
        with pytest.raises(RegistryError):
            registry.register("", 1)
        with pytest.raises(RegistryError):
            registry.register(3, 1)

    def test_unregister(self):
        registry = Registry("thing")
        registry.register("a", 1)
        registry.unregister("a")
        assert "a" not in registry
        with pytest.raises(RegistryError):
            registry.unregister("a")

    def test_provider_loaded_lazily(self):
        registry = Registry("json api", provider="json")
        # Provider import happens on first query, not construction.
        assert registry._provider_loaded is False
        assert registry.names() == []
        assert registry._provider_loaded is True


def _undeclared_generator(design, **params):
    return None


class _UndeclaredScenario(FlowTrafficGenerator):
    """Inherits its base's declared knobs but declares none of its own."""


class TestBuiltinRegistries:
    def test_removal_engines(self):
        assert removal_engines.names() == ["context", "rebuild"]

    @pytest.mark.parametrize(
        "registry, entry",
        [
            (traffic_scenarios, _undeclared_generator),
            (traffic_scenarios, _UndeclaredScenario),
            (fault_models, _undeclared_generator),
        ],
        ids=["scenario-function", "scenario-subclass", "fault-model-function"],
    )
    def test_entry_without_declared_knobs_rejected(self, registry, entry):
        with pytest.raises(RegistryError, match="'undeclared' declares no knob domains"):
            registry.register("undeclared", entry)
        assert "undeclared" not in registry

    def test_ordering_strategies(self):
        assert ordering_strategies.names() == ["hop_index", "layered"]


class TestDispatchThroughRegistries:
    def test_custom_engine_is_dispatched(self, ring_design_fixture):
        calls = []

        @removal_engines.register("recording")
        def _recording_engine(remover, work):
            calls.append(remover.engine)
            return removal_engines.get("rebuild")(remover, work)

        try:
            result = remove_deadlocks(ring_design_fixture, engine="recording")
        finally:
            removal_engines.unregister("recording")
        assert calls == ["recording"]
        assert result.added_vc_count == 1

    def test_unknown_engine_still_raises_removal_error(self):
        with pytest.raises(RemovalError, match="unknown removal engine"):
            DeadlockRemover(engine="warp")

    def test_custom_ordering_strategy_is_dispatched(self, ring_design_fixture):
        from repro.routing.ordering import _hop_index_strategy

        seen = []

        @ordering_strategies.register("spy")
        def _spy_strategy(work):
            seen.append(work.name)
            return _hop_index_strategy(work)

        try:
            result = apply_resource_ordering(ring_design_fixture, strategy="spy")
        finally:
            ordering_strategies.unregister("spy")
        assert seen and result.extra_vcs == 3

    def test_unknown_strategy_still_raises_ordering_error(self, ring_design_fixture):
        with pytest.raises(OrderingError, match="unknown resource-ordering strategy"):
            apply_resource_ordering(ring_design_fixture, strategy="alphabetical")

    def test_mesh_backend_builds_deadlock_free_design(self, d26_traffic):
        from repro.core.removal import is_deadlock_free
        from repro.synthesis.builder import SynthesisConfig, synthesize_design

        config = SynthesisConfig(
            n_switches=9, topology_family="mesh", family_params={"rows": 3, "cols": 3}
        )
        design = synthesize_design(d26_traffic, config)
        assert design.topology.switch_count == 9
        assert is_deadlock_free(design)  # XY-routed mesh
