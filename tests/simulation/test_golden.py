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

**Case 3: the paper's ring deadlocks (Figures 1-7).**  ``paper_ring_design``
is the unidirectional ring ``L1 = SW1->SW2``, ``L2 = SW2->SW3``, ``L3 =
SW3->SW4``, ``L4 = SW4->SW1`` with one VC per link and the flows ``F1 =
{L1, L2, L3}``, ``F2 = {L3, L4}``, ``F3 = {L4, L1}``, ``F4 = {L1, L2}``,
8 flits each.  A trace creates one packet of each flow in cycle 0; the
buffers hold ``d`` flits, ``d`` in 1, 2, 4.  ``B(Lk)`` is the buffer
behind ``Lk``; its upstream router is served before it, except for
``B(L4)`` (at ``SW1``, served before ``SW4``).

* Cycle 0 (R5): at ``SW1`` the queues of ``F1`` and ``F4`` both request
  ``L1`` and ``F1`` comes first by name, so ``F1`` acquires ``L1``;
  ``F2`` acquires ``L3`` at ``SW3`` and ``F3`` acquires ``L4`` at
  ``SW4``.  Each head crosses its first channel.  ``F1`` acquires ``L2``
  in cycle 1, when its head is the only requester at ``SW2``.
* Nothing ever leaves ``B(L2)``, ``B(L3)`` or ``B(L4)``: their heads wait
  for ``L3`` (owned by ``F2``), ``L4`` (``F3``) and ``L1`` (``F1``), and a
  channel is released only when its owner's tail crosses it, which needs
  all 8 flits to fit downstream of it: ``d >= 8`` for ``F2`` and ``F3``.
  So ``F2`` and ``F3`` each cross their first channel ``d`` times, in
  cycles ``0 .. d-1`` (one flit per cycle into an undrained buffer).
* ``F1`` fills ``B(L2)`` through ``B(L1)``: ``d`` flits cross ``L2`` in
  cycles ``1 .. d`` and ``2d`` cross ``L1``.  For ``d >= 2`` they cross in
  cycles ``0 .. 2d-1``: at the start of cycle ``t > d`` ``B(L1)`` holds
  ``t - d`` flits, so it has room until ``t = 2d - 1``.  For ``d = 1`` the
  slot ``SW2`` frees in cycle 1 is seen by ``SW1`` only in cycle 2 (R3),
  so ``L1`` carries flits in cycles 0 and 2.  At ``d = 4`` the tail of
  ``F1`` crosses ``L1`` in cycle 7 and releases it; in cycle 8 the
  round-robin pointer (past ``F1``'s queue) grants ``L1`` to ``F4``,
  whose head cannot enter ``B(L1)`` while ``F1`` holds it (R3).  ``F4``
  never moves at any depth.
* So the transfers are ``2d`` on ``L1`` and ``d`` on each of ``L2``,
  ``L3`` and ``L4``: ``5d`` in all.  The last one is in cycle ``T = 2``
  for ``d = 1`` and ``T = 2d - 1`` otherwise (3 and 7).
* The watchdog counts cycles without a transfer while flits are
  buffered: cycles ``T+1 .. T+200`` are idle, and after cycle ``T + 200``
  the wait-for graph is checked.  It holds ``B(L1) -> L2``, ``B(L2) ->
  L3``, ``B(L3) -> L4`` and ``B(L4) -> L1``: the cycle L1 -> L2 -> L3 ->
  L4, reported in some rotation.  The run stops after that cycle, so
  ``deadlock_cycle = cycles_run = T + 201``: 203, 204 and 208.  No
  packet is delivered.

The removal design (``remove_deadlocks``) breaks the cycle, so the same
trace delivers all four packets there.

Each case runs on ``legacy``, ``compiled`` and a two-lane ``batched`` grid.
"""

from __future__ import annotations

import pytest

from repro.api.registry import simulation_engines
from repro.core.removal import remove_deadlocks
from repro.examples_data.paper_ring import paper_channel, paper_ring_design
from repro.model.channels import Channel, Link
from repro.perf.batch_engine import run_batch
from repro.simulation.simulator import SimulationConfig

F = 8
ENGINES = ("legacy", "compiled", "batched")


def _channels(*switches):
    return [Channel(Link(a, b)) for a, b in zip(switches, switches[1:])]


def _trace_config(events, buffer_depth=4):
    """A config replaying exactly one packet per ``(cycle, flow)`` event."""
    horizon = max(cycle for cycle, _ in events) + 1
    trace = {
        "format_version": 1,
        "cycles": horizon,
        "events": [{"cycle": cycle, "flow": flow, "packets": 1} for cycle, flow in events],
    }
    return horizon, SimulationConfig(
        buffer_depth=buffer_depth,
        traffic_scenario="trace",
        scenario_params={"trace": trace},
    )


def _run_lanes(design, lanes, engine, depths=None):
    """Stats of each lane's trace: solo runs, or one grid on ``batched``."""
    depths = depths or [4] * len(lanes)
    runs = [_trace_config(events, depth) for events, depth in zip(lanes, depths)]
    if engine == "batched":
        (horizon,) = {horizon for horizon, _ in runs}
        return run_batch(design, [config for _, config in runs], max_cycles=horizon)
    return [
        simulation_engines.get(engine)(design, config).run(horizon)
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


RING_TRACE = [(0, "F1"), (0, "F2"), (0, "F3"), (0, "F4")]
#: The other lane of each depth's two-lane ``batched`` grid.
OTHER_DEPTH = {1: 2, 2: 4, 4: 1}


def _is_rotation(channels, cycle):
    start = cycle.index(channels[0])
    return list(channels) == cycle[start:] + cycle[:start]


@pytest.mark.parametrize("depth", (1, 2, 4))
@pytest.mark.parametrize("engine", ENGINES)
def test_paper_ring_deadlocks_on_one_packet_per_flow(engine, depth):
    design = paper_ring_design()
    depths = [depth, OTHER_DEPTH[depth]]
    runs = _run_lanes(design, [RING_TRACE, RING_TRACE], engine, depths)
    l1, l2, l3, l4 = (paper_channel(name) for name in ("L1", "L2", "L3", "L4"))
    for d, stats in zip(depths, runs):
        last_transfer = 2 if d == 1 else 2 * d - 1
        assert stats.deadlock_detected, d
        assert stats.deadlock_cycle == stats.cycles_run == last_transfer + 201
        assert _is_rotation(stats.deadlocked_channels, [l1, l2, l3, l4])
        assert stats.flit_transfers == 5 * d
        assert _busy(stats) == {l1: 2 * d, l2: d, l3: d, l4: d}
        assert stats.packets_injected == 4
        assert stats.packets_delivered == stats.flits_delivered == 0
        assert stats.latencies == []

    # Deadlock removal breaks the cycle: the same trace gets through.
    fixed = remove_deadlocks(design).design
    for d, stats in zip(depths, _run_lanes(fixed, [RING_TRACE, RING_TRACE], engine, depths)):
        assert not stats.deadlock_detected, d
        assert stats.packets_delivered == 4
        assert stats.flits_delivered == 4 * F
