"""Command-line interface: ``python -m repro <command> …``.

Commands:

* ``analyze <scenario>``   — static DCA results (V_out / V_in / V_tr) per component
* ``paths <scenario>``     — statically enumerated causal paths
* ``overhead <scenario>``  — Fig. 5 overhead measurement at one or more rates
* ``simulate <scenario>``  — run one elasticity manager over the Fig. 7 workload
* ``metrics <scenario>``   — run a short simulation and print the telemetry snapshot
* ``faults <fault>``       — run a seeded fault scenario and print fault/recovery counters
* ``chaos``                — sweep the chaos matrix (temporal invariants + reliability scores)
* ``table <scenario…>``    — the Fig. 8 agility + RQ5 SLA tables for all managers
* ``report <scenario…>``   — write the full markdown report to a file

Scenarios: ``marketcetera``, ``hedwig``, ``zookeeper``.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Sequence

from repro.apps.catalog import SCENARIOS, load_scenario
from repro.core.dca import analyze_application
from repro.core.paths import enumerate_causal_paths
from repro.errors import ReproError
from repro.evalx.experiment import (
    MANAGER_NAMES,
    ExperimentConfig,
    MergedProfile,
    build_simulator,
    run_all_managers,
)
from repro.faults import FAULT_SCENARIOS, build_fault_plan
from repro.graphstore.backend import BACKENDS as STORE_BACKENDS
from repro.evalx.overhead import fig5_measurements
from repro.evalx.reporting import fig5_table, fig8_table, format_table, sla_table
from repro.profiling.profiler import PROFILER_MODES
from repro.profiling.sketches import DEFAULT_TOPK_K
from repro.sim.engine import ENGINES


def _at_least(low: int):
    """An argparse ``int`` type that rejects values below ``low``."""

    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    parse.__name__ = "int"
    return parse


def _flags(*parents: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """An empty parent parser for flags several commands share."""
    return argparse.ArgumentParser(add_help=False, parents=list(parents))


def _add_duration(parser: argparse.ArgumentParser, default: int, help: str = "run minutes") -> None:
    parser.add_argument("--duration", type=int, default=default, help=help)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Exploiting Causality to Engineer Elastic "
        "Distributed Software' (ICDCS 2016).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # Each flag several commands share is declared once, in one of these
    # parents; --duration goes through _add_duration, as its default
    # differs per command.
    scenario = _flags()
    scenario.add_argument("scenario", choices=sorted(SCENARIOS))
    seed = _flags()
    seed.add_argument("--seed", type=int, default=7, help="base seed of the run")
    manager = _flags(seed)
    manager.add_argument("--manager", choices=MANAGER_NAMES, default="DCA-10%")
    faulted = _flags(manager)
    faulted.add_argument("--app", choices=sorted(SCENARIOS), default="hedwig")
    faulted.add_argument(
        "--path-timeout", type=float, default=5.0,
        help="minutes before a partial causal path is abandoned",
    )
    pool = _flags()
    pool.add_argument(
        "--workers", type=_at_least(1), default=1,
        help="process-pool workers for the runs (1 = serial)",
    )
    store = _flags()
    store.add_argument(
        "--store-backend", choices=STORE_BACKENDS, default="memory",
        help="graph-store backend: in-process memory (default) or a "
        "crash-safe append-only log (requires --store-dir)",
    )
    store.add_argument(
        "--store-dir", metavar="DIR",
        help="journal directory for --store-backend log (one subdirectory "
        "per run: per manager, or per chaos cell and repeat)",
    )
    scaling = _flags(store)
    scaling.add_argument(
        "--shards", type=int, default=1,
        help="graph-store shards behind each DCA tracker (1 = single store)",
    )
    scaling.add_argument(
        "--batch-size", type=int, default=1,
        help="store-write batch size (1 = unbatched writes)",
    )
    scaling.add_argument(
        "--engine", choices=ENGINES, default="tick",
        help="DCA ingestion: 'tick' re-executes every sampled request "
        "(the oracle); 'event' is the same loop with converged-replay "
        "ingestion (bit-identical results per seed)",
    )
    scaling.add_argument(
        "--profiler-mode", choices=PROFILER_MODES, default="exact",
        help="profiler precision tier: exact per-path buckets (default), "
        "space-saving top-k + count-min tail (bounded memory), or "
        "per-component totals (cheapest)",
    )
    scaling.add_argument(
        "--profiler-topk", type=int, default=DEFAULT_TOPK_K,
        help="hot paths tracked near-exactly in topk mode",
    )
    sweep = _flags(pool, seed, scaling)
    sweep.add_argument("scenarios", nargs="+", choices=sorted(SCENARIOS))
    sweep.add_argument(
        "--merged-profile", metavar="PATH",
        help="write the sweep's combined profiler checkpoint to PATH "
        "(per-manager/per-worker profiles merged — composes with "
        "--profiler-mode topk/component, no exact-mode fallback)",
    )

    sub.add_parser("analyze", parents=[scenario], help="static DCA analysis of a scenario's app")
    sub.add_parser("paths", parents=[scenario], help="statically enumerated causal paths")

    p_overhead = sub.add_parser(
        "overhead", parents=[scenario], help="Fig. 5 runtime-overhead measurement"
    )
    p_overhead.add_argument(
        "--rates", type=float, nargs="+", default=[1.0, 0.05, 0.10, 0.20],
        help="sampling rates in [0,1] (default: the paper's four levels)",
    )
    _add_duration(p_overhead, 450)

    p_sim = sub.add_parser(
        "simulate", parents=[scenario, manager, scaling],
        help="run one manager over the Fig. 7 workload",
    )
    _add_duration(p_sim, 450)

    p_metrics = sub.add_parser(
        "metrics", parents=[scenario, manager, scaling],
        help="run a short simulation and print the telemetry snapshot as JSON",
    )
    _add_duration(p_metrics, 30)
    p_metrics.add_argument(
        "--indent", type=_at_least(0), default=2, help="JSON indent (0 for compact output)"
    )

    p_faults = sub.add_parser(
        "faults", parents=[faulted, scaling],
        help="run a seeded fault scenario against a short simulation and "
        "print the fault + recovery telemetry",
    )
    p_faults.add_argument(
        "fault",
        nargs="?",
        choices=sorted(FAULT_SCENARIOS),
        help="fault scenario to inject (omit with --list to enumerate)",
    )
    p_faults.add_argument(
        "--list", action="store_true", help="list fault scenarios and exit"
    )
    _add_duration(p_faults, 40)
    p_faults.add_argument(
        "--json", action="store_true",
        help="print the full telemetry snapshot instead of the summary",
    )
    p_faults.add_argument(
        "--parity-diffs", metavar="DIR",
        help="instead of running a scenario, load and summarise the "
        "engine-parity diff artifacts under DIR (malformed or empty "
        "artifacts are a hard error, not a silent pass)",
    )

    p_chaos = sub.add_parser(
        "chaos", parents=[faulted, pool, store],
        help="sweep the chaos matrix: seeded fault-space grid with temporal "
        "invariant checking and per-cell reliability scores (the store "
        "flags apply to every cell run; they are not a matrix axis, so "
        "cell ids and digests do not depend on them)",
    )
    p_chaos.add_argument(
        "--cells", type=int, default=64,
        help="matrix cells to sweep (strided across every axis; "
        "0 = the full grid)",
    )
    p_chaos.add_argument(
        "--repeats", type=int, default=2,
        help="seeded runs per cell (reliability statistics need > 1)",
    )
    _add_duration(p_chaos, 36, "run minutes per cell")
    p_chaos.add_argument(
        "--bundle-dir", metavar="DIR",
        help="write a replay bundle (chaos-<cell-id>-r<N>.json) for every "
        "failing run into DIR",
    )
    p_chaos.add_argument(
        "--replay", metavar="CELL_ID",
        help="re-run one cell bit-identically from its id instead of sweeping",
    )
    p_chaos.add_argument(
        "--repeat", type=int,
        help="with --replay: which repeated run to reproduce (default 0)",
    )
    p_chaos.add_argument(
        "--expect-digest", metavar="SHA256",
        help="with --replay: fail unless the replayed telemetry digest "
        "matches (from the sweep output or a replay bundle)",
    )
    p_chaos.add_argument(
        "--list", action="store_true",
        help="print the selected cells without running them",
    )
    p_chaos.add_argument(
        "--json", action="store_true",
        help="print the sweep report as JSON",
    )

    p_table = sub.add_parser("table", parents=[sweep], help="Fig. 8 agility + RQ5 SLA tables")
    _add_duration(p_table, 450)

    p_report = sub.add_parser(
        "report", parents=[sweep],
        help="write a full markdown report (Figs. 5/6/8 + SLA) to a file",
    )
    p_report.add_argument("--output", "-o", default="report.md", help="output path")
    _add_duration(p_report, 450)

    return parser


def _experiment_config(args) -> ExperimentConfig:
    return ExperimentConfig(
        duration_minutes=args.duration,
        seed=args.seed,
        num_shards=args.shards,
        write_batch_size=args.batch_size,
        engine=args.engine,
        profiler_mode=args.profiler_mode,
        profiler_topk=args.profiler_topk,
        store_backend=args.store_backend,
        store_dir=args.store_dir,
    )


def _cmd_analyze(args) -> int:
    scenario = load_scenario(args.scenario)
    dca = analyze_application(scenario.app)
    rows = []
    for name, analysis in sorted(dca.per_component.items()):
        rows.append(
            [
                name,
                ", ".join(sorted(analysis.v_out)) or "∅",
                ", ".join(sorted(analysis.v_tr)) or "∅",
                f"{analysis.state_var_count}",
            ]
        )
    print(format_table(["component", "V_out", "V_tr (tracked)", "state vars"], rows))
    total = dca.total_tracked_vars()
    state = sum(a.state_var_count for a in dca.per_component.values())
    print(f"\n{total}/{state} state variables instrumented "
          f"({100 * total / max(1, state):.0f}%).")
    return 0


def _cmd_paths(args) -> int:
    scenario = load_scenario(args.scenario)
    paths = enumerate_causal_paths(scenario.app)
    for req_type in sorted(paths):
        print(f"{req_type}: {len(paths[req_type])} static causal path(s)")
        for sig in paths[req_type]:
            print(f"  [{sig.path_id}] {sig.describe()}")
    return 0


def _cmd_overhead(args) -> int:
    scenario = load_scenario(args.scenario)
    measurements = fig5_measurements(
        scenario, rates=tuple(args.rates), duration_minutes=args.duration
    )
    print(fig5_table({args.scenario: measurements}))
    return 0


def _cmd_simulate(args) -> int:
    scenario = load_scenario(args.scenario)
    config = _experiment_config(args)
    simulator = build_simulator(scenario, args.manager, config)
    result = simulator.run()
    print(f"{args.manager} over {args.duration} minutes of {args.scenario}:")
    print(f"  agility            : {result.agility():.2f}")
    print(f"  SLA violations     : {result.sla_violation_percent():.2f}%")
    print(f"  zero-agility ticks : {100 * result.zero_agility_fraction():.1f}%")
    print(f"  runtime overhead   : {100 * result.overhead_mean():.2f}%")
    if simulator.event_runner is not None:
        print(f"replay: {simulator.event_runner.replay_report()}")
    return 0


def _cmd_metrics(args) -> int:
    from repro.telemetry import MetricsRegistry

    scenario = load_scenario(args.scenario)
    config = _experiment_config(args)
    registry = MetricsRegistry()
    simulator = build_simulator(scenario, args.manager, config, registry=registry)
    simulator.run()
    print(registry.to_json(indent=args.indent or None))
    return 0


#: Telemetry keys the ``faults`` summary prints, in story order: what was
#: injected, then what each recovery mechanism did about it.
_FAULT_SUMMARY_KEYS = (
    "faults.messages_dropped",
    "faults.messages_duplicated",
    "faults.messages_delayed",
    "faults.edges_lost",
    "faults.store_write_failures",
    "faults.profiler_flush_lost",
    "faults.node_crashes",
    "tracker.store_write_retries",
    "tracker.dead_letters",
    "tracker.duplicate_dead_letters_suppressed",
    "store.dead_letter_depth",
    "store.dead_letter_dropped",
    "store.dead_letter_purged",
    "tracker.delayed_messages_delivered",
    "tracker.late_messages_discarded",
    "tracker.paths_abandoned",
    "tracker.abandoned_nodes",
    "tracker.profiler_records_lost",
    "graphstore.dangling_edges_repaired",
    "elasticity.stale_intervals",
    "elasticity.fallback_engagements",
    "elasticity.fallback_recoveries",
)


def _cmd_faults(args) -> int:
    from repro.core.elasticity import DCAManagerConfig, StalenessPolicy
    from repro.telemetry import MetricsRegistry

    if args.parity_diffs:
        return _report_parity_diffs(args.parity_diffs)
    if args.list or args.fault is None:
        for name in sorted(FAULT_SCENARIOS):
            print(f"{name:16s} {FAULT_SCENARIOS[name].description}")
        return 0 if args.list else 2
    scenario = load_scenario(args.app)
    plan = build_fault_plan(args.fault, seed=args.seed)
    config = _experiment_config(args)
    registry = MetricsRegistry()
    simulator = build_simulator(
        scenario,
        args.manager,
        config,
        registry=registry,
        fault_plan=plan,
        path_timeout_minutes=args.path_timeout,
        manager_config=DCAManagerConfig(staleness=StalenessPolicy()),
    )
    result = simulator.run()
    if args.json:
        print(registry.to_json(indent=2))
        return 0
    print(
        f"{args.fault} ({FAULT_SCENARIOS[args.fault].description})\n"
        f"  {args.manager} over {args.duration} minutes of {args.app}, seed {args.seed}:"
    )
    print(f"  agility            : {result.agility():.2f}")
    print(f"  SLA violations     : {result.sla_violation_percent():.2f}%")
    print(f"  nodes crashed      : {simulator.nodes_failed_total}")
    for key in _FAULT_SUMMARY_KEYS:
        metric = registry.get(key)
        if metric is not None:
            print(f"  {key:40s}: {metric.value:.0f}")
    return 0


def _report_parity_diffs(target: str) -> int:
    """Summarise dumped engine-parity artifacts; bad input is a hard error."""
    from repro.sim.parity import scan_parity_diff_dir

    reports = scan_parity_diff_dir(target)
    if not reports:
        print(f"no parity diff artifacts under {target} (all parity runs passed)")
        return 0
    diverged = 0
    for report in reports:
        status = "OK" if report["ok"] else "DIVERGED"
        if not report["ok"]:
            diverged += 1
        print(
            f"[{status}] {report['scenario']}/{report['manager']} "
            f"seed={report['seed']} duration={report['duration_minutes']}: "
            f"{len(report['record_diffs'])} record, "
            f"{len(report['snapshot_diffs'])} snapshot, "
            f"{len(report['state_diffs'])} state diff(s)"
        )
        for line in list(report["record_diffs"])[:5]:
            print(f"    {line}")
        for line in list(report["snapshot_diffs"])[:5]:
            print(f"    {line}")
    print(f"{diverged}/{len(reports)} artifact(s) record a divergence")
    return 1 if diverged else 0


def _describe_cell(cell) -> str:
    """One chaos cell as a fixed-column line (its id, then every grid axis)."""
    return (
        f"{cell.cell_id}  {cell.fault_profile:14s} "
        f"[{cell.start_minute:>4g},{cell.end_minute:>4g}) "
        f"crashes={cell.crash_schedule:4s} shards={cell.num_shards} "
        f"batch={cell.write_batch_size:<3d} {cell.engine:5s} {cell.profiler_mode:5s}"
    )


def _cmd_chaos(args) -> int:
    import json as _json

    from repro.chaos import ChaosMatrix, MatrixConfig, replay_cell, run_matrix

    matrix = ChaosMatrix(
        MatrixConfig(
            app=args.app,
            manager=args.manager,
            duration_minutes=args.duration,
            base_seed=args.seed,
            path_timeout_minutes=args.path_timeout,
        )
    )
    if args.replay:
        result = replay_cell(
            matrix, args.replay, repeat=args.repeat or 0,
            expected_digest=args.expect_digest,
            store_backend=args.store_backend, store_dir=args.store_dir,
        )
        cell = matrix.cell_by_id(args.replay)
        status = "PASS" if result.passed else "FAIL"
        print(
            f"replayed cell {args.replay} (repeat {result.repeat}, "
            f"seed {result.seed}): {status}"
        )
        print(f"  {_describe_cell(cell)}".rstrip())
        print(f"  telemetry digest : {result.telemetry_digest}")
        if args.expect_digest:
            print("  digest matches the recorded run (bit-identical replay)")
        for violation in result.violations:
            print(f"  [{violation.invariant}] @{violation.minute:g}m {violation.detail}")
        for key, value in sorted(result.headline.items()):
            print(f"  {key:45s}: {value:.0f}")
        return 0 if result.passed else 1

    cells = matrix.select(args.cells or None)
    if args.list:
        for cell in cells:
            print(_describe_cell(cell).rstrip())
        print(f"{len(cells)} cell(s) of {matrix.total_cells} in the full grid")
        return 0
    reports = run_matrix(
        cells, repeats=args.repeats, workers=args.workers,
        bundle_dir=args.bundle_dir,
        store_backend=args.store_backend, store_dir=args.store_dir,
    )
    if args.json:
        payload = []
        for report in reports:
            payload.append(
                {
                    "cell": report.cell.canonical(),
                    "cell_id": report.cell.cell_id,
                    "passed": report.passed,
                    "score": report.score.to_dict(),
                    "runs": [
                        {
                            "repeat": run.repeat,
                            "seed": run.seed,
                            "telemetry_digest": run.telemetry_digest,
                            "violations": [v.to_dict() for v in run.violations],
                        }
                        for run in report.runs
                    ],
                }
            )
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return 0 if all(r.passed for r in reports) else 1
    failing = [r for r in reports if not r.passed]
    print(
        f"chaos sweep: {len(cells)} cell(s) x {args.repeats} run(s), "
        f"{args.manager} over {args.duration} min of {args.app}, "
        f"base seed {args.seed}"
    )
    for report in reports:
        score = report.score
        status = "PASS" if report.passed else "FAIL"
        cell = report.cell
        print(
            f"  [{status}] {_describe_cell(cell)} rel={score.adjusted_rate:.2f} "
            f"ci=[{score.ci_low:.2f},{score.ci_high:.2f}]"
        )
        for run in report.runs:
            if run.passed:
                continue
            for violation in run.violations[:3]:
                print(
                    f"        r{run.repeat} [{violation.invariant}] "
                    f"@{violation.minute:g}m {violation.detail}"
                )
            print(
                f"        replay: repro chaos --replay {cell.cell_id} "
                f"--app {cell.app} --manager '{cell.manager}' "
                f"--duration {cell.duration_minutes} --seed {cell.base_seed} "
                f"--path-timeout {cell.path_timeout_minutes:g} --repeat {run.repeat}"
            )
    print(
        f"{len(cells) - len(failing)}/{len(cells)} cell(s) passed every "
        "invariant on every run"
    )
    return 1 if failing else 0


def _write_merged_profile(profile: MergedProfile, path: str, now_minutes: float) -> None:
    """Persist a sweep's combined profiler and print a short summary."""
    if profile.profiler is None:
        print("merged profile: no DCA run contributed a profiler")
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(profile.profiler.to_json())
    counts = profile.profiler.counts(float(now_minutes))
    top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
    print(
        f"merged profile: {profile.profiler.mode} mode, "
        f"{len(profile.by_manager)} DCA run(s) merged -> {path}"
    )
    for key, count in top:
        if count > 0:
            print(f"  {key}: {count}")


def _cmd_table(args) -> int:
    results_by_app = {}
    profile = MergedProfile() if args.merged_profile else None
    config = _experiment_config(args)
    for name in args.scenarios:
        results_by_app[name] = run_all_managers(
            load_scenario(name), config=config, workers=args.workers, profile=profile
        )
    print("Average agility (Fig. 8; lower is better):")
    print(fig8_table(results_by_app))
    print("\nSLA violations (RQ5):")
    print(sla_table(results_by_app))
    if profile is not None:
        _write_merged_profile(profile, args.merged_profile, args.duration)
    return 0


def _cmd_report(args) -> int:
    from repro.evalx.reporting import fig6_report

    sections: List[str] = [
        "# Reproduction report — Exploiting Causality to Engineer Elastic "
        "Distributed Software (ICDCS 2016)",
        "",
        f"Scenarios: {', '.join(args.scenarios)} · duration {args.duration} min "
        f"· seed {args.seed}",
    ]
    overheads = {}
    results_by_app = {}
    profile = MergedProfile() if args.merged_profile else None
    config = _experiment_config(args)
    for name in args.scenarios:
        scenario = load_scenario(name)
        overheads[name] = fig5_measurements(scenario, duration_minutes=args.duration)
        results_by_app[name] = run_all_managers(
            scenario, config=config, workers=args.workers, profile=profile
        )

    sections += ["", "## Fig. 5 — DCA runtime overhead", "```",
                 fig5_table(overheads), "```"]
    sections += ["", "## Fig. 8 — average agility (lower is better)", "```",
                 fig8_table(results_by_app), "```"]
    sections += ["", "## RQ5 — SLA violations", "```",
                 sla_table(results_by_app), "```"]
    for name, results in results_by_app.items():
        sections += ["", f"## Fig. 6 — {name} time series", "```",
                     fig6_report(results, name), "```"]
    text = "\n".join(sections) + "\n"
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(f"wrote {args.output} ({len(text.splitlines())} lines)")
    if profile is not None:
        _write_merged_profile(profile, args.merged_profile, args.duration)
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "paths": _cmd_paths,
    "overhead": _cmd_overhead,
    "simulate": _cmd_simulate,
    "metrics": _cmd_metrics,
    "faults": _cmd_faults,
    "chaos": _cmd_chaos,
    "table": _cmd_table,
    "report": _cmd_report,
}


def _check_chaos_flags(parser: argparse.ArgumentParser, args) -> None:
    """Reject chaos flags the command would otherwise ignore or misread."""
    if args.cells < 0:
        parser.error("--cells must be >= 0 (0 = the full grid)")
    if args.replay is None:
        for flag, value in (("--repeat", args.repeat), ("--expect-digest", args.expect_digest)):
            if value is not None:
                parser.error(f"{flag} requires --replay")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "chaos":
        _check_chaos_flags(parser, args)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
