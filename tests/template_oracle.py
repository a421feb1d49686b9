"""The full compile as the oracle of a continued simulation template.

Kept in a separate (uniquely named) helper module because the tests
directory is not a package: pytest puts ``tests/`` on ``sys.path`` for its
``conftest.py``, so the compiled-engine and fault-recovery suites both
import this as a top-level module.
"""

from __future__ import annotations

from repro.perf.sim_engine import SimulationTemplate


def sweep_of(template: SimulationTemplate) -> dict:
    """What ``template`` tells the sweep, through channels and flow names.

    Per router: the link groups in VC order, the arbitration sources and
    the wait-for order; each routed flow's route; the flow table.  Two
    templates of one design must describe the same sweep, whatever ids
    each gave its channels, link slots and flows.
    """
    channels = template.channels
    flow_name = {fid: name for name, fid in template.flow_ids.items()}
    return {
        "links": [
            [[channels[c] for c in chs] for chs, _ in groups] for groups in template.r_links
        ],
        "sources": [
            [channels[s] if s >= 0 else flow_name[~s] for s in sources]
            for sources in template.r_sources
        ],
        "wait_order": [channels[c] for c in template.wait_order],
        "routes": {
            name: [channels[c] for c in template.flow_routes[key]]
            for name, (key, _) in template.flow_table.items()
            if key >= 0
        },
        "flow_table": {
            name: (flow_name[key] if key >= 0 else key, size)
            for name, (key, size) in template.flow_table.items()
        },
    }


def assert_matches_fresh_compile(template: SimulationTemplate) -> None:
    """``template`` describes the sweep a fresh compile of its design does."""
    assert sweep_of(template) == sweep_of(SimulationTemplate(template.design))
