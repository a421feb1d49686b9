"""Tests for the correlated fault-model registry (repro.simulation.fault_models).

Every generator must be a *pure seeded function* of ``(design, seed,
parameters)``: the experiment cache fingerprints only the spec, so any
hidden state (wallclock, iteration order over an unsorted container)
would silently poison cached results.  The hypothesis suites here pin
that purity plus each model's defining structural property — uniform's
byte-identity with :meth:`EventSchedule.random`, spatial bursts'
radius-bounded footprint, the cascade's load-before-idle ordering and
the MTBF renewal process's per-link fail/restore alternation.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.registry import fault_models
from repro.benchmarks.synthetic import default_mesh_traffic
from repro.errors import RegistryError, SimulationError
from repro.simulation.events import EventSchedule
from repro.simulation.fault_models import (
    _hop_distances,
    build_fault_schedule,
    cascade_model,
    mtbf_model,
    spatial_burst_model,
    uniform_model,
)
from repro.synthesis.families import family_design

SETTINGS = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)


@pytest.fixture(scope="module")
def design():
    return family_design(
        "mesh", default_mesh_traffic(3, 3), {"rows": 3, "cols": 3}, name="mesh3x3"
    )


class TestRegistry:
    def test_canonical_names(self):
        assert fault_models.names() == ["cascade", "mtbf", "spatial_burst", "uniform"]

    def test_unknown_model_rejected(self):
        with pytest.raises(RegistryError, match="fault model"):
            fault_models.get("meteor_strike")


class TestUniformModel:
    @SETTINGS
    @given(seed=SEEDS)
    def test_byte_identical_to_event_schedule_random(self, design, seed):
        generated = uniform_model(
            design, seed=seed, link_failures=2, router_failures=1, restore_after=120
        )
        reference = EventSchedule.random(
            design.topology,
            seed=seed,
            link_failures=2,
            router_failures=1,
            restore_after=120,
        )
        assert generated.to_dict() == reference.to_dict()


class TestSpatialBurstModel:
    @SETTINGS
    @given(seed=SEEDS, radius=st.integers(min_value=0, max_value=3))
    def test_footprint_within_radius_of_one_epicentre(self, design, seed, radius):
        schedule = spatial_burst_model(design, seed=seed, bursts=1, radius=radius)
        failed = {event.link for event in schedule.events if event.action == "fail_link"}
        assert failed, "a burst on a connected mesh must fail at least one link"
        # Some switch explains every failed link as within-radius.
        topology = design.topology
        assert any(
            all(
                min(
                    _hop_distances(topology, switch).get(link.src, radius + 1),
                    _hop_distances(topology, switch).get(link.dst, radius + 1),
                )
                <= radius
                for link in failed
            )
            for switch in topology.switches
        )

    @SETTINGS
    @given(seed=SEEDS, radius=st.integers(min_value=0, max_value=2))
    def test_footprint_grows_monotonically_with_radius(self, design, seed, radius):
        # The epicentre and cycle draws happen before radius is consulted,
        # so the same seed grows the same burst outward.
        smaller = spatial_burst_model(design, seed=seed, bursts=1, radius=radius)
        larger = spatial_burst_model(design, seed=seed, bursts=1, radius=radius + 1)
        links = lambda schedule: {
            event.link for event in schedule.events if event.action == "fail_link"
        }
        assert links(smaller) <= links(larger)

    @SETTINGS
    @given(seed=SEEDS)
    def test_restore_after_repairs_every_failed_link(self, design, seed):
        schedule = spatial_burst_model(
            design, seed=seed, bursts=2, radius=1, restore_after=77
        )
        fails = {e.link for e in schedule.events if e.action == "fail_link"}
        restores = {e.link for e in schedule.events if e.action == "restore_link"}
        assert fails == restores

    def test_negative_radius_rejected(self, design):
        with pytest.raises(SimulationError, match="radius"):
            spatial_burst_model(design, radius=-1)

    def test_inverted_window_rejected(self, design):
        with pytest.raises(SimulationError, match="end_cycle"):
            spatial_burst_model(design, start_cycle=500, end_cycle=500)


class TestCascadeModel:
    @SETTINGS
    @given(seed=SEEDS)
    def test_loaded_links_fail_before_idle_ones(self, design, seed):
        loads = design.link_load()
        all_links = design.topology.links
        schedule = cascade_model(design, seed=seed, failures=len(all_links))
        fail_cycle = {
            event.link: event.cycle
            for event in schedule.events
            if event.action == "fail_link"
        }
        assert set(fail_cycle) == set(all_links)
        loaded = [fail_cycle[l] for l in all_links if loads.get(l, 0.0) > 0]
        idle = [fail_cycle[l] for l in all_links if loads.get(l, 0.0) <= 0]
        if loaded and idle:
            assert max(loaded) <= min(idle)

    @SETTINGS
    @given(seed=SEEDS, failures=st.integers(min_value=1, max_value=5))
    def test_draws_distinct_links_within_window(self, design, seed, failures):
        schedule = cascade_model(
            design, seed=seed, failures=failures, start_cycle=200, end_cycle=300
        )
        events = schedule.events
        assert len(events) == min(failures, len(design.topology.links))
        assert len({event.link for event in events}) == len(events)
        assert all(200 <= event.cycle < 300 for event in events)


class TestMtbfModel:
    @SETTINGS
    @given(seed=SEEDS)
    def test_per_link_renewal_structure(self, design, seed):
        horizon = 2000
        schedule = mtbf_model(design, seed=seed, mtbf=400.0, mttr=100.0, horizon=horizon)
        per_link = {}
        for event in schedule.events:
            assert event.cycle < horizon
            per_link.setdefault(event.link, []).append(event)
        assert per_link, "mtbf=400 over 2000 cycles should fail something"
        for events in per_link.values():
            cycles = [event.cycle for event in events]
            assert cycles == sorted(set(cycles)), "strictly increasing per link"
            actions = [event.action for event in events]
            # Strict alternation starting with a failure; only the *last*
            # event may be an unmatched fail (repair past the horizon).
            expected = ["fail_link", "restore_link"] * len(actions)
            assert actions == expected[: len(actions)]

    def test_invalid_parameters_rejected(self, design):
        with pytest.raises(SimulationError, match="mtbf"):
            mtbf_model(design, mtbf=0.0)
        with pytest.raises(SimulationError, match="mtbf"):
            mtbf_model(design, mttr=-1.0)
        with pytest.raises(SimulationError, match="horizon"):
            mtbf_model(design, horizon=0)


class TestDeterminism:
    @pytest.mark.parametrize("model", fault_models.names())
    def test_pure_function_of_seed_and_params(self, design, model):
        generator = fault_models.get(model)
        first = generator(design, seed=7)
        second = generator(design, seed=7)
        assert first.to_dict() == second.to_dict()

    @pytest.mark.parametrize("model", fault_models.names())
    def test_every_schedule_validates_against_topology(self, design, model):
        schedule = fault_models.get(model)(design, seed=3)
        # validate_targets raises on any event naming a foreign component.
        assert schedule.validate_targets(design.topology) is schedule


class TestBuildFaultSchedule:
    def test_no_request_yields_none(self, design):
        assert build_fault_schedule(design) is None

    def test_model_and_schedule_are_mutually_exclusive(self, design):
        with pytest.raises(SimulationError, match="mutually exclusive"):
            build_fault_schedule(
                design, fault_model="uniform", fault_schedule={"events": []}
            )

    def test_params_without_model_rejected(self, design):
        with pytest.raises(SimulationError, match="without a fault_model"):
            build_fault_schedule(design, fault_params={"radius": 1})

    def test_unknown_parameter_reported_as_simulation_error(self, design):
        with pytest.raises(SimulationError, match="parameter"):
            build_fault_schedule(
                design, fault_model="uniform", fault_params={"blast_radius": 3}
            )

    def test_unknown_model_raises_registry_error(self, design):
        with pytest.raises(RegistryError):
            build_fault_schedule(design, fault_model="meteor_strike")

    def test_spec_seed_feeds_the_generator(self, design):
        via_spec = build_fault_schedule(design, fault_model="uniform", seed=11)
        direct = uniform_model(design, seed=11)
        assert via_spec.to_dict() == direct.to_dict()

    def test_explicit_param_seed_wins_over_spec_seed(self, design):
        schedule = build_fault_schedule(
            design, fault_model="uniform", fault_params={"seed": 5}, seed=11
        )
        assert schedule.to_dict() == uniform_model(design, seed=5).to_dict()

    def test_schedule_document_still_resolves(self, design):
        schedule = build_fault_schedule(
            design, fault_schedule={"random": {"link_failures": 1, "seed": 4}}
        )
        assert len(schedule) == 1
