"""A small grid floorplanner for link-length estimation.

The ORION-style link power/area model needs physical link lengths.  Real
flows get them from a floorplanner; here switches are placed on a regular
grid of tiles and iteratively improved by greedy pairwise swaps that reduce
the bandwidth-weighted Manhattan wirelength.  The result is written back
onto the topology as per-link lengths in millimetres.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.model.design import NocDesign
from repro.model.topology import Topology

#: Default tile pitch in millimetres — roughly the size of a small IP block
#: plus its router at 65 nm, the technology node of the paper's power model.
DEFAULT_TILE_MM = 2.0

#: Shortest link length in millimetres: two adjacent switches still need a
#: wire between them.
MINIMUM_LINK_MM = 0.5


def grid_dimensions(n_switches: int) -> Tuple[int, int]:
    """Smallest near-square grid that fits ``n_switches`` tiles."""
    cols = max(1, math.ceil(math.sqrt(n_switches)))
    rows = max(1, math.ceil(n_switches / cols))
    return rows, cols


def _initial_positions(switches: List[str], tile_mm: float) -> Dict[str, Tuple[float, float]]:
    rows, cols = grid_dimensions(len(switches))
    positions = {}
    for index, switch in enumerate(switches):
        row, col = divmod(index, cols)
        positions[switch] = (col * tile_mm, row * tile_mm)
    return positions


def _wirelength(
    positions: Dict[str, Tuple[float, float]],
    demands: Dict[Tuple[str, str], float],
) -> float:
    total = 0.0
    for (a, b), weight in demands.items():
        ax, ay = positions[a]
        bx, by = positions[b]
        total += weight * (abs(ax - bx) + abs(ay - by))
    return total


def place_switches(
    design: NocDesign, *, tile_mm: float = DEFAULT_TILE_MM
) -> Dict[str, Tuple[float, float]]:
    """Place switches on a grid minimising bandwidth-weighted wirelength.

    Deterministic: the initial placement follows switch insertion order and
    the improvement passes consider swaps in sorted order, accepting any
    swap that strictly reduces the objective.
    """
    switches = design.topology.switches
    positions = _initial_positions(switches, tile_mm)

    demands: Dict[Tuple[str, str], float] = {}
    link_load = design.link_load()
    for link, load in link_load.items():
        key = (link.src, link.dst)
        demands[key] = demands.get(key, 0.0) + max(load, 1.0)

    # Demands touching each switch, so a swap only re-evaluates local terms.
    touching: Dict[str, List[Tuple[Tuple[str, str], float]]] = {s: [] for s in switches}
    for pair, weight in demands.items():
        touching[pair[0]].append((pair, weight))
        if pair[1] != pair[0]:
            touching[pair[1]].append((pair, weight))

    def local_cost(a: str, b: str) -> float:
        seen = set()
        cost = 0.0
        for pair, weight in touching[a] + touching[b]:
            if pair in seen:
                continue
            seen.add(pair)
            ax, ay = positions[pair[0]]
            bx, by = positions[pair[1]]
            cost += weight * (abs(ax - bx) + abs(ay - by))
        return cost

    for _ in range(4):  # at most four improvement passes
        improved = False
        for i in range(len(switches)):
            for j in range(i + 1, len(switches)):
                a, b = switches[i], switches[j]
                before = local_cost(a, b)
                positions[a], positions[b] = positions[b], positions[a]
                after = local_cost(a, b)
                if after + 1e-9 < before:
                    improved = True
                else:
                    positions[a], positions[b] = positions[b], positions[a]
        if not improved:
            break
    return positions


def assign_link_lengths(
    design: NocDesign,
    *,
    tile_mm: float = DEFAULT_TILE_MM,
    positions: Optional[Dict[str, Tuple[float, float]]] = None,
) -> Dict[str, Tuple[float, float]]:
    """Floorplan the design and store Manhattan link lengths on the topology,
    each at least :data:`MINIMUM_LINK_MM`.

    Returns the switch positions so callers can reuse or display them.
    """
    if positions is None:
        positions = place_switches(design, tile_mm=tile_mm)
    topology = design.topology
    for link in topology.links:
        ax, ay = positions[link.src]
        bx, by = positions[link.dst]
        length = abs(ax - bx) + abs(ay - by)
        topology.set_link_length(link, max(length, MINIMUM_LINK_MM))
    return positions
