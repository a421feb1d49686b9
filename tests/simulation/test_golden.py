"""Golden cases: latencies derived by hand from the router model.

Every other simulation test compares one engine with another; these
compare each engine with numbers worked out on paper from the scheduling
rules of :mod:`repro.simulation.network`, so a mistake the engines share
still fails here.  The rules:

* **R1, one hop per cycle.**  A flit that crosses a channel in cycle ``t``
  lands in the downstream buffer after every router has been served, and
  crosses its next channel in cycle ``t + 1`` at the earliest.
* **R2, one flit per link per cycle.**  A queue or a buffer forwards its
  packet's flits over a channel on consecutive cycles at best.
* **R3, zero credit latency.**  A flit crosses a non-final channel only if
  the downstream buffer has room and holds no flit of another packet.
  Routers are served in sorted-name order; a slot freed in cycle ``t`` is
  visible to every router served after it in cycle ``t``.
* **R4, ejection.**  The final hop ejects into the destination interface,
  which never back-pressures.  ``delivered_cycle`` is the cycle in which
  the tail flit crosses the final channel; the latency is
  ``delivered_cycle - created_cycle``.
* **R5, injection and allocation.**  A packet created in cycle ``c`` is
  queued before the routers are served, so its head may cross its first
  channel in cycle ``c``.  A free channel goes to the first requesting
  source in the router's order (input buffers by channel, then injection
  queues by flow name), starting after the source granted it last.

The design is the 3 x 3 XY mesh of the ``small_mesh_design`` fixture:
every packet has ``F = 8`` flits and the buffers hold 4, so without
contention a flit leaves each buffer the cycle after it arrived.  Explicit
traces inject exactly the packets named; a run injects for as many cycles
as its trace, then drains until the last tail is delivered in cycle
``D``, so ``cycles_run = D + 1``.

**Case 1: a lone packet on an h-channel route, created in cycle c.**  By
R5, R2 and R1, flit ``j`` (from 0) crosses route channel ``k`` (from 1) in
cycle ``c + j + k - 1``.  The tail, ``j = F - 1``, crosses channel
``k = h`` in cycle ``c + F + h - 2``, so by R4 the latency is
``F + h - 2``: 8 on the 2-channel route of ``f0`` and 10 on the 4-channel
route of ``f1``.  Each route channel is busy for ``F`` cycles, and the run
makes ``h * F`` transfers.  With ``c = 3`` the runs end at cycles 12 and 14.

**Case 2: two packets request one channel in the same cycle.**  ``f4``
(``sw_2_0 -> sw_1_0 -> sw_0_0 -> sw_0_1 -> sw_0_2``, created in cycle 0)
and ``f2`` (``sw_1_0 -> sw_0_0 -> sw_0_1``, created in cycle 1) share
``X = sw_1_0->sw_0_0`` and ``Y = sw_0_0->sw_0_1``.

* In cycle 1 ``f4``'s head has reached ``sw_1_0`` (R5, R1) and ``f2``'s
  head is queued there (R5).  Both request ``X``; the input buffer comes
  before the injection queue, so ``f4`` wins.  It never waits: latency
  ``8 + 4 - 2 = 10`` as in case 1.  Its flits cross ``X`` in cycles 1 to
  8 and ``Y`` in cycles 2 to 9, so its tail frees ``X`` in cycle 8 and
  ``Y`` in cycle 9.
* In cycle 9 ``f2``'s queue is the only requester of ``X``.  The buffer
  behind ``X`` at ``sw_0_0`` held ``f4``'s tail at the start of the
  cycle, but ``sw_0_0`` is served before ``sw_1_0`` and forwards the tail
  first (R3).  So ``f2``'s head crosses ``X`` in cycle 9 and ``Y``, its
  final channel, in cycle 10 (R1), and its tail crosses ``Y`` in cycle
  17: latency ``17 - 1 = 16``; the run ends at 18.

The mirror image, ``f1`` (``sw_0_2 -> sw_1_2 -> sw_2_2 -> sw_2_1 ->
sw_2_0``, cycle 0) against ``f3`` (``sw_1_2 -> sw_2_2 -> sw_2_1``, cycle
1), differs in one fact: the buffer behind ``X' = sw_1_2->sw_2_2`` sits at
``sw_2_2``, served *after* ``sw_1_2``.  In cycle 9 ``f3`` is granted
``X'``, but that buffer still holds ``f1``'s tail and never holds two
packets (R3).  So ``f3``'s head crosses ``X'`` in cycle 10 and
``Y' = sw_2_2->sw_2_1`` in 11, and its tail crosses ``Y'`` in 18:
latency 17.  ``f1`` keeps 10, and the run ends at 19.

Each case runs on ``legacy``, ``compiled`` and a two-lane ``batched`` grid.
"""

from __future__ import annotations

import pytest

from repro.model.channels import Channel, Link
from repro.perf.batch_engine import run_batch
from repro.simulation.simulator import SimulationConfig, build_simulator

F = 8
ENGINES = ("legacy", "compiled", "batched")


def _channels(*switches):
    return [Channel(Link(a, b)) for a, b in zip(switches, switches[1:])]


def _trace_config(events):
    """A config replaying exactly one packet per ``(cycle, flow)`` event."""
    horizon = max(cycle for cycle, _ in events) + 1
    trace = {
        "format_version": 1,
        "cycles": horizon,
        "events": [{"cycle": cycle, "flow": flow, "packets": 1} for cycle, flow in events],
    }
    return horizon, SimulationConfig(traffic_scenario="trace", scenario_params={"trace": trace})


def _run_lanes(design, lanes, engine):
    """Stats of each lane's trace: solo runs, or one grid on ``batched``."""
    runs = [_trace_config(events) for events in lanes]
    if engine == "batched":
        (horizon,) = {horizon for horizon, _ in runs}
        return run_batch(design, [config for _, config in runs], max_cycles=horizon)
    return [
        build_simulator(design, config, engine=engine).run(horizon)
        for horizon, config in runs
    ]


def _busy(stats):
    return {channel: count for channel, count in stats.channel_busy_cycles.items() if count}


@pytest.mark.parametrize("engine", ENGINES)
def test_lone_packet_latency_is_flits_plus_hops_minus_two(engine, small_mesh_design):
    routes = {
        "f0": _channels("sw_0_1", "sw_1_1", "sw_1_0"),
        "f1": _channels("sw_0_2", "sw_1_2", "sw_2_2", "sw_2_1", "sw_2_0"),
    }
    for flow, route in routes.items():
        assert list(small_mesh_design.routes.route(flow).channels) == route
    lanes = [[(3, "f0")], [(3, "f1")]]
    short, long = _run_lanes(small_mesh_design, lanes, engine)
    for stats, route, latency in ((short, routes["f0"], 8), (long, routes["f1"], 10)):
        h = len(route)
        assert latency == F + h - 2
        assert stats.latencies == [latency]
        assert stats.cycles_run == 3 + latency + 1
        assert stats.flit_transfers == h * F
        assert _busy(stats) == {channel: F for channel in route}
        assert stats.packets_delivered == 1 and not stats.deadlock_detected


@pytest.mark.parametrize("engine", ENGINES)
def test_contending_packets_follow_round_robin_and_credit_order(engine, small_mesh_design):
    x, y = _channels("sw_1_0", "sw_0_0", "sw_0_1")
    x2, y2 = _channels("sw_1_2", "sw_2_2", "sw_2_1")
    assert list(small_mesh_design.routes.route("f2").channels) == [x, y]
    assert list(small_mesh_design.routes.route("f3").channels) == [x2, y2]
    lanes = [[(0, "f4"), (1, "f2")], [(0, "f1"), (1, "f3")]]
    freed_early, freed_late = _run_lanes(small_mesh_design, lanes, engine)

    # The buffered packet wins; the freed slot behind X is visible in time.
    assert freed_early.latencies == [10, 16]
    assert freed_early.cycles_run == 18
    assert _busy(freed_early)[x] == _busy(freed_early)[y] == 2 * F

    # Behind X' the slot frees only after sw_1_2 was served: one cycle lost.
    assert freed_late.latencies == [10, 17]
    assert freed_late.cycles_run == 19
    assert _busy(freed_late)[x2] == _busy(freed_late)[y2] == 2 * F

    for stats in (freed_early, freed_late):
        assert stats.flit_transfers == (4 + 2) * F
        assert stats.packets_delivered == 2 and not stats.deadlock_detected
