"""repro — reproduction of "A Method to Remove Deadlocks in Networks-on-Chips
with Wormhole Flow Control" (Seiculescu, Murali, Benini, De Micheli, DATE 2010).

The package provides:

* a NoC design model (topology, traffic, routes) — :mod:`repro.model`;
* the paper's CDG-based minimal-VC deadlock-removal algorithm —
  :mod:`repro.core`;
* the resource-ordering baseline and routing utilities — :mod:`repro.routing`;
* an application-specific topology synthesizer — :mod:`repro.synthesis`;
* reconstructions of the paper's SoC benchmarks — :mod:`repro.benchmarks`;
* ORION-style power and area models — :mod:`repro.power`;
* a flit-level wormhole simulator with deadlock detection —
  :mod:`repro.simulation`;
* the evaluation drivers for every figure of the paper —
  :mod:`repro.analysis`.

Quickstart::

    from repro import paper_ring_design, remove_deadlocks, build_cdg

    design = paper_ring_design()
    assert not build_cdg(design).is_acyclic()      # Figure 2: one cycle
    result = remove_deadlocks(design)
    print(result.summary())                        # 1 VC added, CDG acyclic
"""

from repro.analysis.experiments import compare_methods
from repro.api import (
    ArtifactCache,
    ExperimentPlan,
    PlanResult,
    Registry,
    RunResult,
    RunSpec,
    Runner,
    ordering_strategies,
    removal_engines,
    run_plan,
    run_report,
)
from repro.benchmarks.registry import get_benchmark, list_benchmarks
from repro.core.cdg import ChannelDependencyGraph, build_cdg
from repro.core.cost import CostTable, build_cost_table, find_dependency_to_break
from repro.core.cycles import find_all_cycles, find_smallest_cycle, has_cycle
from repro.core.removal import DeadlockRemover, is_deadlock_free, remove_deadlocks
from repro.core.report import BreakAction, RemovalResult
from repro.errors import (
    ConvergenceError,
    DeadlockDetected,
    DesignError,
    PlanError,
    RegistryError,
    ReproError,
    SerializationError,
    ValidationError,
)
from repro.examples_data.paper_ring import paper_ring_design
from repro.export.dot import cdg_to_dot, design_report, topology_to_dot
from repro.model.channels import Channel, Link
from repro.model.design import NocDesign
from repro.model.routes import Route, RouteSet
from repro.model.serialization import load_design, save_design
from repro.model.topology import Topology
from repro.model.traffic import CommunicationGraph, Flow
from repro.model.validation import validate_design
from repro.perf import CDGIndex, IncrementalCycleSearch, parallel_map
from repro.power.estimator import estimate_area, estimate_power
from repro.power.orion import RouterPowerModel, TechnologyParameters
from repro.routing.ordering import OrderingResult, apply_resource_ordering
from repro.routing.shortest_path import compute_routes
from repro.simulation.simulator import SimulationConfig, Simulator, simulate_design
from repro.synthesis.builder import SynthesisConfig, synthesize_design

__version__ = "1.0.0"

__all__ = [
    # model
    "Channel",
    "Link",
    "Topology",
    "CommunicationGraph",
    "Flow",
    "Route",
    "RouteSet",
    "NocDesign",
    "validate_design",
    "save_design",
    "load_design",
    # core algorithm
    "ChannelDependencyGraph",
    "build_cdg",
    "find_smallest_cycle",
    "find_all_cycles",
    "has_cycle",
    "CostTable",
    "build_cost_table",
    "find_dependency_to_break",
    "DeadlockRemover",
    "remove_deadlocks",
    "is_deadlock_free",
    "RemovalResult",
    "BreakAction",
    # baselines and routing
    "apply_resource_ordering",
    "OrderingResult",
    "compute_routes",
    # synthesis and benchmarks
    "SynthesisConfig",
    "synthesize_design",
    "get_benchmark",
    "list_benchmarks",
    # power
    "TechnologyParameters",
    "RouterPowerModel",
    "estimate_power",
    "estimate_area",
    # simulation
    "Simulator",
    "SimulationConfig",
    "simulate_design",
    # performance core
    "CDGIndex",
    "IncrementalCycleSearch",
    "parallel_map",
    # analysis
    "compare_methods",
    # declarative experiment API
    "RunSpec",
    "ExperimentPlan",
    "RunResult",
    "PlanResult",
    "Runner",
    "ArtifactCache",
    "Registry",
    "run_plan",
    "run_report",
    "removal_engines",
    "ordering_strategies",
    # exporters
    "topology_to_dot",
    "cdg_to_dot",
    "design_report",
    # canned designs
    "paper_ring_design",
    # errors
    "ReproError",
    "DesignError",
    "ValidationError",
    "ConvergenceError",
    "DeadlockDetected",
    "SerializationError",
    "PlanError",
    "RegistryError",
    "__version__",
]
