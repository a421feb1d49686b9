"""Tests for the fault event schedule (repro.simulation.events)."""

from __future__ import annotations

import json

import pytest

from repro.api.registry import topology_families
from repro.errors import SimulationError
from repro.simulation.events import ACTIONS, EventSchedule, FaultEvent
from repro.simulation.fault_models import uniform_model


class TestFaultEvent:
    def test_link_event_round_trip(self):
        event = FaultEvent(42, "fail_link", ("a", "b", 1))
        assert FaultEvent.from_dict(event.to_dict()) == event
        assert event.is_link_event
        assert event.link.src == "a" and event.link.dst == "b"
        assert event.link.index == 1

    def test_router_event_round_trip(self):
        event = FaultEvent(7, "restore_router", ("sw3",))
        assert FaultEvent.from_dict(event.to_dict()) == event
        assert not event.is_link_event
        assert event.switch == "sw3"

    def test_events_order_by_cycle_first(self):
        late = FaultEvent(100, "fail_link", ("a", "b", 0))
        early = FaultEvent(5, "restore_router", ("z",))
        assert early < late

    @pytest.mark.parametrize("cycle", [-1, 1.5, "10", True])
    def test_invalid_cycle_rejected(self, cycle):
        with pytest.raises(SimulationError):
            FaultEvent(cycle, "fail_link", ("a", "b", 0))

    def test_unknown_action_rejected(self):
        expected = "fault event: action must be one of 'fail_link', .*, got 'explode'"
        with pytest.raises(SimulationError, match=expected):
            FaultEvent(0, "explode", ("a", "b", 0))

    def test_mismatched_target_arity_rejected(self):
        with pytest.raises(SimulationError):
            FaultEvent(0, "fail_link", ("a",))
        with pytest.raises(SimulationError):
            FaultEvent(0, "fail_router", ("a", "b", 0))

    def test_from_dict_rejects_malformed_documents(self):
        with pytest.raises(SimulationError):
            FaultEvent.from_dict("not a mapping")
        with pytest.raises(SimulationError):
            FaultEvent.from_dict({"cycle": 1, "action": "fail_link"})
        with pytest.raises(SimulationError):
            FaultEvent.from_dict({"cycle": 1, "action": "fail_router"})

    def test_link_index_defaults_to_zero(self):
        event = FaultEvent.from_dict(
            {"cycle": 1, "action": "fail_link", "link": {"src": "a", "dst": "b"}}
        )
        assert event.target == ("a", "b", 0)


class TestEventSchedule:
    def _sample(self) -> EventSchedule:
        return (
            EventSchedule()
            .fail_link(50, "a", "b")
            .fail_router(50, "sw1")
            .restore_link(90, "a", "b")
            .restore_router(120, "sw1")
        )

    def test_builders_chain_and_count(self):
        schedule = self._sample()
        assert len(schedule) == 4
        assert bool(schedule)
        assert not EventSchedule()

    def test_events_come_back_in_canonical_order(self):
        forward = self._sample()
        backward = EventSchedule(reversed(forward.events))
        assert forward == backward
        cycles = [event.cycle for event in forward]
        assert cycles == sorted(cycles)

    def test_json_round_trip(self):
        schedule = self._sample()
        payload = json.dumps(schedule.to_dict())
        assert EventSchedule.from_dict(json.loads(payload)) == schedule

    def test_from_dict_rejects_malformed(self):
        with pytest.raises(SimulationError):
            EventSchedule.from_dict([1, 2])
        with pytest.raises(SimulationError):
            EventSchedule.from_dict({"events": "nope"})


class TestRandomSchedules:
    """The seeded draw of the ``uniform`` fault model."""

    def test_same_seed_same_schedule(self, small_mesh_design):
        a = uniform_model(small_mesh_design, seed=3, link_failures=2, router_failures=1)
        b = uniform_model(small_mesh_design, seed=3, link_failures=2, router_failures=1)
        assert a == b

    def test_different_seeds_diverge(self, small_mesh_design):
        schedules = {
            uniform_model(small_mesh_design, seed=seed, link_failures=2).events
            for seed in range(8)
        }
        assert len(schedules) > 1

    def test_cycles_within_window_and_targets_exist(self, small_mesh_design):
        links = set(small_mesh_design.topology.links)
        schedule = uniform_model(
            small_mesh_design, seed=1, link_failures=3, start_cycle=10, end_cycle=40
        )
        assert len(schedule) == 3
        for event in schedule:
            assert event.action == "fail_link"
            assert 10 <= event.cycle < 40
            assert event.link in links

    def test_restore_after_pairs_every_failure(self, small_mesh_design):
        schedule = uniform_model(
            small_mesh_design,
            seed=2,
            link_failures=2,
            router_failures=1,
            restore_after=500,
        )
        fails = [e for e in schedule if e.action.startswith("fail")]
        restores = [e for e in schedule if e.action.startswith("restore")]
        assert len(fails) == len(restores) == 3
        by_target = {e.target: e.cycle for e in fails}
        for event in restores:
            assert event.cycle == by_target[event.target] + 500

    def test_failure_counts_clamped_to_topology(self, small_mesh_design):
        topology = small_mesh_design.topology
        schedule = uniform_model(
            small_mesh_design, seed=0, link_failures=10_000, router_failures=10_000
        )
        fails = [e for e in schedule if e.action == "fail_link"]
        routers = [e for e in schedule if e.action == "fail_router"]
        assert len(fails) == len(topology.links)
        assert len(routers) == len(topology.switches)
        assert len({e.target for e in fails}) == len(fails)

    def test_empty_window_rejected(self, small_mesh_design):
        with pytest.raises(SimulationError):
            uniform_model(small_mesh_design, start_cycle=10, end_cycle=10)


class TestFromSpec:
    def test_none_passes_through(self):
        assert EventSchedule.from_spec(None) is None

    def test_schedule_passes_through(self):
        schedule = EventSchedule().fail_link(1, "a", "b")
        assert EventSchedule.from_spec(schedule) is schedule

    def test_events_document(self):
        schedule = EventSchedule().fail_link(5, "a", "b")
        resolved = EventSchedule.from_spec(schedule.to_dict())
        assert resolved == schedule

    def test_random_request_points_to_the_uniform_model(self):
        """Seeded random schedules have one spelling: the uniform fault model."""
        topology = topology_families.get("mesh").build({"rows": 2, "cols": 2}).topology
        for topo in (topology, None):
            with pytest.raises(SimulationError, match='fault_model: "uniform"'):
                EventSchedule.from_spec({"random": {"link_failures": 1}}, topology=topo)

    @pytest.mark.parametrize(
        "value",
        [
            "faults",
            {"events": [], "random": {}},
            {"random": "nope"},
            {"neither": 1},
        ],
    )
    def test_malformed_specs_rejected(self, value):
        with pytest.raises(SimulationError):
            mesh = topology_families.get("mesh").build({"rows": 2, "cols": 2})
            EventSchedule.from_spec(value, topology=mesh.topology)


def test_actions_constant_is_complete():
    assert set(ACTIONS) == {"fail_link", "fail_router", "restore_link", "restore_router"}
