"""Tests for CDG cycle detection (repro.core.cycles)."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.core.cdg import ChannelDependencyGraph, build_cdg
from repro.core.cycles import (
    count_cycles,
    cycle_edges,
    find_all_cycles,
    find_largest_cycle,
    find_smallest_cycle,
    has_cycle,
    verify_cycle,
)
from repro.errors import CycleSearchError
from repro.examples_data.paper_ring import paper_channel
from repro.model.channels import Channel, Link


def ch(src, dst, vc=0):
    return Channel(Link(src, dst), vc)


def cdg_from_routes(routes):
    cdg = ChannelDependencyGraph()
    for i, route in enumerate(routes):
        cdg.add_route(f"f{i}", route)
    return cdg


@pytest.fixture
def two_cycle_cdg():
    """A CDG with a 2-cycle (X<->Y) and a 3-cycle (A->B->C->A)."""
    return cdg_from_routes(
        [
            [ch("X", "Y"), ch("Y", "X"), ch("X", "Y")],
            [ch("A", "B"), ch("B", "C"), ch("C", "A"), ch("A", "B")],
        ]
    )


class TestSmallestCycle:
    def test_acyclic_returns_none(self, simple_line_design):
        assert find_smallest_cycle(build_cdg(simple_line_design)) is None

    def test_paper_ring_cycle_found(self, ring_design_fixture):
        cycle = find_smallest_cycle(build_cdg(ring_design_fixture))
        assert cycle is not None
        assert len(cycle) == 4
        assert set(cycle) == {paper_channel(n) for n in ("L1", "L2", "L3", "L4")}

    def test_smallest_of_several_cycles(self, two_cycle_cdg):
        cycle = find_smallest_cycle(two_cycle_cdg)
        assert len(cycle) == 2
        assert set(cycle) == {ch("X", "Y"), ch("Y", "X")}

    def test_returned_cycle_is_verified(self, two_cycle_cdg):
        cycle = find_smallest_cycle(two_cycle_cdg)
        assert verify_cycle(two_cycle_cdg, cycle)

    def test_deterministic(self, ring_design_fixture):
        cdg = build_cdg(ring_design_fixture)
        assert find_smallest_cycle(cdg) == find_smallest_cycle(cdg)


class TestEnumeration:
    def test_find_all_cycles_counts_both(self, two_cycle_cdg):
        cycles = find_all_cycles(two_cycle_cdg)
        assert len(cycles) == 2
        assert sorted(len(c) for c in cycles) == [2, 3]

    def test_limit_caps_enumeration(self, two_cycle_cdg):
        assert len(find_all_cycles(two_cycle_cdg, limit=1)) == 1

    def test_count_cycles(self, two_cycle_cdg, ring_design_fixture):
        assert count_cycles(two_cycle_cdg) == 2
        assert count_cycles(build_cdg(ring_design_fixture)) == 1

    def test_largest_cycle(self, two_cycle_cdg):
        assert len(find_largest_cycle(two_cycle_cdg)) == 3

    def test_largest_cycle_none_when_acyclic(self, simple_line_design):
        assert find_largest_cycle(build_cdg(simple_line_design)) is None

    def test_largest_cycle_matches_sorted_enumeration(self, two_cycle_cdg):
        """The single-pass max equals sort-then-max from the enumeration."""
        cycles = find_all_cycles(two_cycle_cdg)
        assert find_largest_cycle(two_cycle_cdg) == max(cycles, key=len)

    def test_largest_cycle_tie_broken_by_names(self):
        # Two disjoint 2-cycles: the one with the smaller channel names wins.
        cdg = cdg_from_routes(
            [
                [ch("X", "Y"), ch("Y", "X"), ch("X", "Y")],
                [ch("A", "B"), ch("B", "A"), ch("A", "B")],
            ]
        )
        cycle = find_largest_cycle(cdg)
        assert set(cycle) == {ch("A", "B"), ch("B", "A")}

    def test_count_cycles_respects_limit(self, two_cycle_cdg):
        assert count_cycles(two_cycle_cdg, limit=1) == 1
        assert count_cycles(two_cycle_cdg, limit=0) == 0

    def test_has_cycle(self, ring_design_fixture, simple_line_design):
        assert has_cycle(build_cdg(ring_design_fixture))
        assert not has_cycle(build_cdg(simple_line_design))


class TestHashSeedIndependence:
    """A capped enumeration is the same in every process.

    The D36_8 @ 14 CDG has 31 elementary cycles, so a cap of 10 decides
    which ones are seen.  String hashing changes with ``PYTHONHASHSEED``;
    the enumeration order must not.
    """

    SCRIPT = textwrap.dedent(
        """
        from repro.benchmarks.registry import get_benchmark
        from repro.core.cdg import build_cdg
        from repro.core.cycles import find_all_cycles, find_largest_cycle
        from repro.synthesis.builder import SynthesisConfig, synthesize_design
        design = synthesize_design(get_benchmark("D36_8"), SynthesisConfig(n_switches=14))
        cdg = build_cdg(design)
        print([[c.name for c in cycle] for cycle in find_all_cycles(cdg, limit=10)])
        print([c.name for c in find_largest_cycle(cdg, limit=10)])
        """
    )

    def run_under(self, hash_seed: str) -> str:
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=hash_seed)
        done = subprocess.run(
            [sys.executable, "-c", self.SCRIPT], env=env, capture_output=True, text=True
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_capped_cycles_ignore_the_hash_seed(self):
        first = self.run_under("0")
        assert first.count("vc0") > 10
        assert self.run_under("1") == first


class TestCycleEdges:
    def test_edges_include_closing_edge(self):
        cycle = [ch("A", "B"), ch("B", "C"), ch("C", "A")]
        edges = cycle_edges(cycle)
        assert len(edges) == 3
        assert edges[-1] == (ch("C", "A"), ch("A", "B"))

    def test_empty_cycle_rejected(self):
        with pytest.raises(CycleSearchError):
            cycle_edges([])

    def test_verify_cycle_rejects_fake_cycle(self, ring_design_fixture):
        cdg = build_cdg(ring_design_fixture)
        fake = [paper_channel("L1"), paper_channel("L3")]
        assert not verify_cycle(cdg, fake)

    def test_verify_cycle_rejects_empty(self, ring_design_fixture):
        assert not verify_cycle(build_cdg(ring_design_fixture), [])
