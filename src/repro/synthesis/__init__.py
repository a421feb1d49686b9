"""Topology generation substrate.

The paper generates its input topologies with an external
application-specific synthesis tool (Murali et al., ICCAD 2006) and states
that "the input topologies could be either manually designed or obtained
using any existing synthesis tools".  This subpackage provides that
substrate:

* :mod:`repro.synthesis.partition` — traffic-weighted core-to-switch
  clustering;
* :mod:`repro.synthesis.builder` — application-specific switch network
  construction plus deterministic shortest-path routing;
* :mod:`repro.synthesis.families` — parameterized reference topologies
  (ring, mesh, torus, fat tree, Clos, dragonfly);
* :mod:`repro.synthesis.floorplan` — a simple grid floorplanner providing
  link lengths for the power model.
"""

from repro.synthesis.builder import SynthesisConfig, synthesize_design
from repro.synthesis.partition import partition_cores

__all__ = [
    "partition_cores",
    "SynthesisConfig",
    "synthesize_design",
]
