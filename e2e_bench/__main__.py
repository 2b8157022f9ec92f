"""``python -m e2e_bench measure|run|compare|setup|manifest``."""

from time import perf_counter

# Stamped before anything heavy is imported: ``setup_s`` counts imports.
_STARTED = perf_counter()

import argparse
import json
import os
import sys

from e2e_bench import REPO_ROOT

_SRC = os.path.join(REPO_ROOT, "src")


def _require_program() -> None:
    """Put ``src/`` on the path; the benchmark cannot run without the program."""
    if not os.path.isdir(os.path.join(_SRC, "repro")):
        sys.exit(f"e2e_bench: the program under test is missing ({_SRC}/repro)")
    if _SRC not in sys.path:
        sys.path.insert(0, _SRC)


def _known(workloads: list) -> list:
    """``workloads`` if every name exists (all of them when empty)."""
    from e2e_bench.workloads import WORKLOADS

    for name in workloads:
        if name not in WORKLOADS:
            sys.exit(f"e2e_bench: unknown workload {name!r}; choose from {list(WORKLOADS)}")
    return workloads or list(WORKLOADS)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python -m e2e_bench", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    measure = commands.add_parser(
        "measure", help="one workload, one mode; prints one JSON result line (driver contract)"
    )
    measure.add_argument("--workload", required=True)
    measure.add_argument("--seed", type=int, default=7)
    measure.add_argument("--seconds", type=float, default=None)
    measure.add_argument("--trace", type=int, choices=(0, 1), default=0)

    run = commands.add_parser(
        "run", help="every workload in fresh subprocesses, untraced then traced; one JSON report"
    )
    run.add_argument("--seed", type=int, default=7)
    run.add_argument("--workload", action="append", default=None)
    run.add_argument("--seconds", type=float, default=None)
    run.add_argument("--repeats", type=int, default=1, help="untraced runs per workload")
    run.add_argument("--out", default=None, help="also write the report to this file")

    compare = commands.add_parser(
        "compare", help="compare result sets written by `run --out` (first is the baseline)"
    )
    compare.add_argument("reports", nargs="+")

    setup = commands.add_parser("setup", help="time one fresh-process set-up (used by measure)")
    setup.add_argument("--workload", required=True)
    setup.add_argument("--seed", type=int, default=7)
    setup.add_argument("--scale", type=float, default=1.0)

    commands.add_parser("manifest", help="print BENCHMARK.json as the code defines it")

    args = parser.parse_args(argv)
    if args.command == "compare":
        from e2e_bench.compare import compare_reports

        return compare_reports(args.reports)

    _require_program()
    from e2e_bench import metrics

    if args.command == "manifest":
        print(json.dumps(metrics.manifest(), indent=2))
        return 0
    if args.command == "setup":
        from e2e_bench.harness import setup_seconds

        _known([args.workload])
        print(repr(setup_seconds(_STARTED, args.workload, args.seed, args.scale)))
        return 0
    seconds = args.seconds if args.seconds is not None else float(metrics.RUN_SECONDS)
    if args.command == "measure":
        from e2e_bench.harness import measure as measure_workload

        _known([args.workload])
        print(json.dumps(measure_workload(args.workload, args.seed, seconds, bool(args.trace))))
        return 0
    from e2e_bench.report import run_all

    return run_all(_known(args.workload or []), args.seed, seconds, args.repeats, args.out)


if __name__ == "__main__":
    sys.exit(main())
