"""Route computation and deadlock-avoidance baselines.

* :mod:`repro.routing.shortest_path` — deterministic weighted shortest-path
  route computation over an arbitrary topology (the "routing function" the
  paper takes as input).
* :mod:`repro.routing.ordering` — the resource-ordering baseline the paper
  compares against (Dally & Towles resource classes).
* :mod:`repro.routing.turns` — turn-prohibition utilities (up*/down* routing
  on arbitrary topologies, XY routing on meshes) used by the synthesis
  substrate and as an extra point of comparison.
"""

from repro.routing.ordering import OrderingResult, apply_resource_ordering
from repro.routing.shortest_path import compute_routes, shortest_route

__all__ = [
    "compute_routes",
    "shortest_route",
    "apply_resource_ordering",
    "OrderingResult",
]
