"""Command-line interface.

Installed as ``noc-deadlock``.  Subcommands:

* ``analyze``   — load a design JSON, report CDG cycles and deadlock status;
* ``remove``    — run the deadlock-removal algorithm and write the result;
* ``ordering``  — apply the resource-ordering baseline and write the result;
* ``synthesize``— generate an application-specific design from a benchmark;
* ``simulate``  — run the wormhole simulator on a design;
* ``benchmarks``— list the available SoC benchmarks;
* ``figures``   — regenerate the data behind the paper's figures;
* ``run``       — execute a declarative experiment plan (JSON), with an
  artifact cache so repeated sweeps reuse earlier work;
* ``lint``      — run the AST-based invariant checker (``repro.lint``)
  over the sources; exits non-zero on any non-baselined finding.

Every subcommand is a thin adapter over the library — ``figures`` and
``run`` both go through :mod:`repro.api`, so a plan holding the figure
reports prints byte-identical JSON to the ``figures`` subcommand.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro.api.registry import (
    fault_models,
    ordering_strategies,
    recovery_policies,
    removal_engines,
    routing_engines,
    simulation_engines,
    topology_families,
    traffic_scenarios,
)
from repro.api.reports import run_report
from repro.api.runner import Runner, default_cache_dir
from repro.api.spec import ExperimentPlan
from repro.benchmarks.registry import get_benchmark, list_benchmarks
from repro.core.cdg import build_cdg
from repro.core.cycles import count_cycles, find_smallest_cycle
from repro.core.removal import remove_deadlocks
from repro.errors import ReproError
from repro.export.dot import cdg_to_dot, design_report, topology_to_dot
from repro.model.serialization import load_design, save_design
from repro.power.estimator import estimate_area, estimate_power
from repro.routing.ordering import apply_resource_ordering
from repro.simulation.simulator import SimulationConfig, simulate_design
from repro.synthesis.builder import SynthesisConfig, synthesize_design


def _cmd_analyze(args: argparse.Namespace) -> int:
    design = load_design(args.design)
    cdg = build_cdg(design)
    acyclic = cdg.is_acyclic()
    print(f"design           : {design.name}")
    print(f"switches / links : {design.topology.switch_count} / {design.topology.link_count}")
    print(f"flows            : {design.traffic.flow_count}")
    print(f"CDG channels     : {cdg.channel_count}")
    print(f"CDG dependencies : {cdg.edge_count}")
    print(f"deadlock free    : {'yes' if acyclic else 'NO'}")
    if not acyclic:
        cycles = count_cycles(cdg, limit=1000)
        smallest = find_smallest_cycle(cdg)
        print(f"cycles (capped)  : {cycles}")
        print("smallest cycle   : " + " -> ".join(c.name for c in smallest))
    return 0 if acyclic or not args.strict else 1


def _cmd_remove(args: argparse.Namespace) -> int:
    design = load_design(args.design)
    result = remove_deadlocks(design, engine=args.engine, cross_check=args.cross_check)
    print(result.summary())
    if args.output:
        save_design(result.design, args.output)
        print(f"wrote deadlock-free design to {args.output}")
    return 0


def _cmd_ordering(args: argparse.Namespace) -> int:
    design = load_design(args.design)
    result = apply_resource_ordering(design, strategy=args.strategy)
    print(result.summary())
    if args.output:
        save_design(result.design, args.output)
        print(f"wrote resource-ordered design to {args.output}")
    return 0


def _parse_json_object(value: Optional[str], flag: str) -> dict:
    """Parse an inline-JSON-object CLI value (``{}`` when omitted)."""
    if value is None:
        return {}
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"invalid {flag} JSON: {exc}")
    if not isinstance(parsed, dict):
        raise SystemExit(f"{flag} must be a JSON object, got {parsed!r}")
    return parsed


def _cmd_synthesize(args: argparse.Namespace) -> int:
    traffic = get_benchmark(args.benchmark, seed=args.seed)
    family_params = _parse_json_object(args.family_params, "--family-params")
    if args.family_params is not None and args.topology_family is None:
        raise SystemExit("--family-params needs --topology-family")
    switches = args.switches
    if switches is None:
        if args.topology_family is not None:
            # Let the family's closed form decide; the builder derives the
            # size from the parameters.
            from repro.synthesis.families import family_size  # local: lazy import

            switches = family_size(args.topology_family, family_params)
        else:
            switches = 14
    config = SynthesisConfig(
        n_switches=switches,
        seed=args.seed,
        routing_engine=args.routing_engine,
        topology_family=args.topology_family,
        family_params=family_params,
    )
    design = synthesize_design(traffic, config)
    cdg = build_cdg(design)
    print(f"synthesized {design.name}: {design.topology.switch_count} switches, "
          f"{design.topology.link_count} links, CDG "
          f"{'acyclic' if cdg.is_acyclic() else 'CYCLIC'}")
    power = estimate_power(design)
    area = estimate_area(design)
    print(power.summary())
    print(area.summary())
    if args.output:
        save_design(design, args.output)
        print(f"wrote design to {args.output}")
    return 0


def _load_fault_schedule(value: Optional[str]):
    """Parse ``--fault-schedule``: inline JSON (starts with ``{``) or a file.

    Returns the raw document; resolution against the design's topology
    (including ``{"random": ...}`` requests) happens in ``simulate_design``.
    """
    if value is None:
        return None
    text = value if value.lstrip().startswith("{") else Path(value).read_text()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"invalid fault schedule JSON: {exc}")


def _cmd_simulate(args: argparse.Namespace) -> int:
    from repro.simulation.fault_models import build_fault_schedule  # local: lazy import

    design = load_design(args.design)
    fault_params = _parse_json_object(args.fault_params, "--fault-params")
    if args.fault_params is not None and args.fault_model is None:
        raise SystemExit("--fault-params needs --fault-model")
    # Resolves --fault-model through the registry or --fault-schedule via
    # EventSchedule.from_spec (and rejects passing both).
    schedule = build_fault_schedule(
        design,
        fault_model=args.fault_model,
        fault_params=fault_params,
        fault_schedule=_load_fault_schedule(args.fault_schedule),
        seed=args.seed,
    )
    config = SimulationConfig(
        injection_scale=args.injection_scale,
        buffer_depth=args.buffer_depth,
        seed=args.seed,
        traffic_scenario=args.traffic_scenario,
        scenario_params=_parse_json_object(args.scenario_params, "--scenario-params"),
    )
    stats = simulate_design(
        design,
        max_cycles=args.cycles,
        config=config,
        engine=args.engine,
        cross_check=args.cross_check,
        fault_schedule=schedule,
        fault_recovery=args.recovery_policy,
    )
    print(stats.summary())
    return 1 if stats.deadlock_detected else 0


def _cmd_export(args: argparse.Namespace) -> int:
    design = load_design(args.design)
    if args.what == "topology":
        output = topology_to_dot(design)
    elif args.what == "cdg":
        cdg = build_cdg(design)
        cycle = find_smallest_cycle(cdg)
        output = cdg_to_dot(cdg, highlight_cycle=cycle)
    else:
        output = design_report(design)
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(output + "\n")
        print(f"wrote {args.what} view to {args.output}")
    else:
        print(output)
    return 0


def _cmd_benchmarks(_args: argparse.Namespace) -> int:
    for name in list_benchmarks():
        traffic = get_benchmark(name)
        print(f"{name:12s}  cores={traffic.core_count:3d}  flows={traffic.flow_count:3d}")
    return 0


#: Figure-subcommand choices -> report-type names, in ``all`` print order.
_FIGURE_REPORTS = (
    ("8", "figure8"),
    ("9", "figure9"),
    ("10", "figure10"),
    ("area", "area"),
    ("overhead", "overhead"),
)


def _cmd_figures(args: argparse.Namespace) -> int:
    for choice, report in _FIGURE_REPORTS:
        if args.figure in (choice, "all"):
            data = run_report(report, {"seed": args.seed}, jobs=args.jobs)
            print(json.dumps(data, indent=2))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    plan = ExperimentPlan.load(args.plan)
    cache_dir = None
    if not args.no_cache:
        cache_dir = Path(args.cache_dir).expanduser() if args.cache_dir else default_cache_dir()
    runner = Runner(cache_dir=cache_dir, jobs=args.jobs)
    outcome = runner.run(plan)

    rendered = outcome.render_reports()
    for _name, document in rendered:
        print(json.dumps(document, indent=2))
    if not rendered:
        print(json.dumps(outcome.rows(), indent=2))
    if args.output:
        Path(args.output).write_text(json.dumps(outcome.to_dict(), indent=2) + "\n")
        print(
            f"wrote {len(outcome.results)} result(s) to {args.output}", file=sys.stderr
        )
    print(
        f"plan {plan.name!r}: {len(outcome.results)} point(s), "
        f"{outcome.cache_hits} served from cache",
        file=sys.stderr,
    )
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.lint import lint_paths, save_baseline  # local: lint-only import

    baseline: Optional[Path] = None
    if not args.no_baseline:
        baseline = Path(args.baseline)
    report = lint_paths(
        args.paths,
        root=Path.cwd(),
        tests_dir=args.tests_dir,
        baseline=baseline,
        rules=args.rules.split(",") if args.rules else None,
    )
    if args.update_baseline:
        if baseline is None:
            raise SystemExit("--update-baseline requires a baseline file (drop --no-baseline)")
        save_baseline(baseline, report.findings)
        print(f"wrote {len(report.findings)} finding(s) to {baseline}")
        return 0
    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for finding in report.new_findings:
            print(finding.render())
        summary = (
            f"{report.checked_files} file(s) checked: "
            f"{len(report.new_findings)} new finding(s), "
            f"{len(report.grandfathered)} baselined, "
            f"{len(report.suppressed)} suppressed"
        )
        print(summary, file=sys.stderr)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and documentation tools)."""
    parser = argparse.ArgumentParser(
        prog="noc-deadlock",
        description="Deadlock removal for wormhole NoCs (DATE 2010 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="report CDG cycles of a design file")
    p.add_argument("design", help="path to a design JSON file")
    p.add_argument("--strict", action="store_true", help="exit non-zero when cyclic")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("remove", help="run the deadlock-removal algorithm")
    p.add_argument("design", help="path to a design JSON file")
    p.add_argument(
        "--engine",
        choices=removal_engines.names(),
        default="context",
        help="removal engine (default: context)",
    )
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="context engine: verify the CDG index against a full rebuild "
        "and every cost table against the reference builder after each "
        "break (slow; debugging aid)",
    )
    p.add_argument("-o", "--output", help="where to write the modified design")
    p.set_defaults(func=_cmd_remove)

    p = sub.add_parser("ordering", help="apply the resource-ordering baseline")
    p.add_argument("design", help="path to a design JSON file")
    p.add_argument(
        "--strategy", choices=ordering_strategies.names(), default="hop_index"
    )
    p.add_argument("-o", "--output", help="where to write the modified design")
    p.set_defaults(func=_cmd_ordering)

    p = sub.add_parser("synthesize", help="synthesize a design from a benchmark")
    p.add_argument("benchmark", help="benchmark name (see 'benchmarks')")
    p.add_argument(
        "--switches",
        type=int,
        default=None,
        help="switch count (default: 14, or the family's closed form when "
        "--topology-family is given)",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--routing-engine",
        choices=routing_engines.names(),
        default="indexed",
        help="shortest-path routing engine (default: indexed)",
    )
    p.add_argument(
        "--topology-family",
        choices=topology_families.names(),
        default=None,
        help="generate the topology from a parameterized family instead of "
        "the application-specific synthesis flow",
    )
    p.add_argument(
        "--family-params",
        default=None,
        metavar="JSON",
        help="family parameters as a JSON object, e.g. '{\"k\": 4}' for "
        "fat_tree (requires --topology-family)",
    )
    p.add_argument("-o", "--output", help="where to write the design")
    p.set_defaults(func=_cmd_synthesize)

    p = sub.add_parser("simulate", help="run the wormhole simulator on a design")
    p.add_argument("design", help="path to a design JSON file")
    p.add_argument("--cycles", type=int, default=10000)
    p.add_argument("--injection-scale", type=float, default=1.0)
    p.add_argument("--buffer-depth", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--engine",
        choices=simulation_engines.names(),
        default="compiled",
        help="simulation engine (default: compiled; 'batched' is the compiled "
        "engine here and runs whole grids as compiled lanes in plans)",
    )
    p.add_argument(
        "--traffic-scenario",
        choices=traffic_scenarios.names(),
        default="flows",
        help="traffic scenario (default: flows, the design's own traffic)",
    )
    p.add_argument(
        "--scenario-params",
        default=None,
        metavar="JSON",
        help="scenario parameters as a JSON object, e.g. "
        "'{\"trace\": \"demand.json\"}' for the trace scenario",
    )
    p.add_argument(
        "--cross-check",
        action="store_true",
        help="also run the legacy engine and fail on any statistics "
        "divergence (slow; debugging aid)",
    )
    p.add_argument(
        "--fault-schedule",
        default=None,
        metavar="JSON_OR_FILE",
        help="inject link/router failures mid-run: a JSON document (inline "
        "when starting with '{', otherwise a file path) with an 'events' "
        "list or a seeded 'random' request",
    )
    p.add_argument(
        "--fault-model",
        choices=fault_models.names(),
        default=None,
        help="generate the fault schedule from a correlated model instead "
        "of --fault-schedule (seeded from --seed)",
    )
    p.add_argument(
        "--fault-params",
        default=None,
        metavar="JSON",
        help="fault-model parameters as a JSON object, e.g. "
        "'{\"radius\": 2}' for spatial_burst (requires --fault-model)",
    )
    p.add_argument(
        "--recovery-policy",
        choices=recovery_policies.names(),
        default="removal",
        help="recovery policy repairing the route set after each fault "
        "batch (default: removal)",
    )
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("export", help="export a design as Graphviz DOT or a text report")
    p.add_argument("design", help="path to a design JSON file")
    p.add_argument("what", choices=["topology", "cdg", "report"])
    p.add_argument("-o", "--output", help="file to write (stdout when omitted)")
    p.set_defaults(func=_cmd_export)

    p = sub.add_parser("benchmarks", help="list the available SoC benchmarks")
    p.set_defaults(func=_cmd_benchmarks)

    p = sub.add_parser("figures", help="regenerate the data behind the paper's figures")
    p.add_argument("figure", choices=["8", "9", "10", "area", "overhead", "all"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="fan sweep points out over N worker processes "
        "(default: serial; -1 = one per CPU)",
    )
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser(
        "run",
        help="execute a declarative experiment plan (JSON) with artifact caching",
    )
    p.add_argument("plan", help="path to an ExperimentPlan JSON document")
    p.add_argument(
        "-j",
        "--jobs",
        type=int,
        default=None,
        help="fan plan points out over N worker processes "
        "(default: serial; -1 = one per CPU)",
    )
    p.add_argument(
        "--cache-dir",
        default=None,
        help="artifact cache directory (default: $NOC_DEADLOCK_CACHE_DIR "
        "or ~/.cache/noc-deadlock)",
    )
    p.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the artifact cache for this run",
    )
    p.add_argument(
        "-o",
        "--output",
        help="write the full result document (specs, results, reports) as JSON",
    )
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser(
        "lint",
        help="run the AST-based invariant checker over the sources",
    )
    p.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    p.add_argument(
        "--format",
        choices=["human", "json"],
        default="human",
        help="output format (default: human; json prints the full report)",
    )
    p.add_argument(
        "--baseline",
        default="lint-baseline.json",
        help="grandfathered-findings file (default: lint-baseline.json)",
    )
    p.add_argument(
        "--no-baseline",
        action="store_true",
        help="compare against an empty baseline — every finding is new",
    )
    p.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the baseline from the current findings and exit 0",
    )
    p.add_argument(
        "--tests-dir",
        default="tests",
        help="test tree cross-referencing rules scan (default: tests)",
    )
    p.add_argument(
        "--rules",
        default=None,
        help="comma-separated rule ids to run (default: all registered)",
    )
    p.set_defaults(func=_cmd_lint)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
