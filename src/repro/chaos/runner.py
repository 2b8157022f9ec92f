"""Parallel chaos-matrix execution and deterministic failing-cell replay.

Each cell runs as one process-pool task (the PR 5 runner pattern: the
cell travels as a plain dict, the worker builds everything from scratch
with a private telemetry registry, and only small results ship back —
violations, event counts, and a telemetry digest, never the event stream
or the snapshot itself).  Invariants are evaluated *in-worker* right
after the simulation finishes, while the tap stream is still local.

The **telemetry digest** is the replay contract: a sha256 over the
canonical JSON of every non-volatile metric in the run's snapshot
(volatile keys — wall-clock timers and backend diagnostics — are
excluded exactly as in the engine-parity oracle).  Two runs of the same
cell id must produce byte-identical digests whether they execute in a
pool worker, serially, or in a later ``repro chaos --replay`` process;
``tests/chaos/test_replay_determinism.py`` pins this across 25 seeds.

Failing cells are written out as **replay bundles**
(``chaos-<cell_id>.json``) carrying the cell's canonical parameters,
repeat index, digest, and violations.  :func:`load_replay_bundle`
refuses empty/truncated/malformed bundles with
:class:`~repro.errors.ParityArtifactError` — a bad artifact must read as
"the run failed", never as "nothing to replay".
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence

from repro.chaos.invariants import Violation, check_all
from repro.chaos.matrix import ChaosCell, ChaosMatrix
from repro.chaos.reliability import ReliabilityScore, reliability_score
from repro.errors import EvaluationError
from repro.sim.parity import load_json_artifact

#: Keys a replay bundle must carry to be loadable.
_BUNDLE_REQUIRED_KEYS = ("cell", "cell_id", "repeat", "telemetry_digest", "violations")


@dataclass
class CellRunResult:
    """Outcome of one run (cell x repeat): violations + replay digest."""

    cell_id: str
    repeat: int
    seed: int
    violations: List[Violation]
    telemetry_digest: str
    event_counts: Dict[str, int]
    headline: Dict[str, float]

    @property
    def passed(self) -> bool:
        return not self.violations

    @property
    def outcome(self) -> FrozenSet[str]:
        """Violation signature (empty = pass) for reliability scoring."""
        return frozenset(v.invariant for v in self.violations)


@dataclass
class CellReport:
    """One cell's aggregated sweep outcome."""

    cell: ChaosCell
    runs: List[CellRunResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(run.passed for run in self.runs)

    @property
    def score(self) -> ReliabilityScore:
        return reliability_score([run.outcome for run in self.runs])


def telemetry_digest(snapshot: Mapping[str, object]) -> str:
    """sha256 over the canonical JSON of the non-volatile snapshot metrics.

    Sorted keys + canonical separators make the digest independent of
    dict construction order; excluding volatile keys makes it
    process-stable (wall-clock timers measure the host, not the run).
    """
    from repro.sim.events import is_volatile_metric_key

    metrics = snapshot.get("metrics", {})
    stable = {
        key: value
        for key, value in metrics.items()
        if not is_volatile_metric_key(key)
    }
    blob = json.dumps(stable, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


#: Telemetry counters worth a headline in sweep output (cheap context for
#: a failing cell without shipping the whole snapshot back).
_HEADLINE_KEYS = (
    "tracker.dead_letters",
    "tracker.duplicate_dead_letters_suppressed",
    "tracker.paths_abandoned",
    "tracker.late_messages_discarded",
    "store.dead_letter_purged",
    "elasticity.fallback_engagements",
    "elasticity.fallback_recoveries",
)


def run_cell(
    cell: ChaosCell,
    repeat: int = 0,
    store_backend: str = "memory",
    store_dir: Optional[str] = None,
) -> CellRunResult:
    """Execute one cell run in-process and evaluate every invariant.

    Mirrors the ``repro faults`` wiring: DCA managers get the staleness
    fallback enabled (it is the subject of the re-engagement invariant)
    and a finite path timeout so abandonment machinery is live.

    ``store_backend``/``store_dir`` are sweep-level overrides, *not* a
    matrix axis (cell ids are digest-derived from the grid parameters
    and must stay stable across backends).  The telemetry digest is
    backend-independent by contract, so a sweep on the ``log`` backend
    must reproduce the memory sweep bit-for-bit.  With the log backend,
    each run journals into its own ``<cell_id>-r<repeat>`` subdirectory
    of ``store_dir``.
    """
    from repro.apps.catalog import load_scenario
    from repro.core.elasticity import DCAManagerConfig, StalenessPolicy
    from repro.evalx.experiment import ExperimentConfig, build_simulator
    from repro.sim.tap import SimTap
    from repro.telemetry import MetricsRegistry

    scenario = load_scenario(cell.app)
    if store_backend == "log" and store_dir is not None:
        store_dir = os.path.join(store_dir, f"{cell.cell_id}-r{repeat}")
    config = ExperimentConfig(
        duration_minutes=cell.duration_minutes,
        seed=cell.seed_for(repeat),
        num_shards=cell.num_shards,
        write_batch_size=cell.write_batch_size,
        engine=cell.engine,
        profiler_mode=cell.profiler_mode,
        store_backend=store_backend,
        store_dir=store_dir,
    )
    registry = MetricsRegistry()
    tap = SimTap()
    simulator = build_simulator(
        scenario,
        cell.manager,
        config,
        registry=registry,
        fault_plan=cell.fault_plan(repeat),
        path_timeout_minutes=cell.path_timeout_minutes,
        manager_config=DCAManagerConfig(staleness=StalenessPolicy()),
        tap=tap,
    )
    simulator.run()
    fresh_after = 2
    detector = getattr(simulator.manager, "staleness_detector", None)
    if detector is not None:
        fresh_after = detector.policy.fresh_after_intervals
    violations = check_all(tap, fresh_after_intervals=fresh_after)
    snapshot = registry.snapshot()
    headline: Dict[str, float] = {}
    for key in _HEADLINE_KEYS:
        metric = registry.get(key)
        if metric is not None and metric.value:
            headline[key] = float(metric.value)
    return CellRunResult(
        cell_id=cell.cell_id,
        repeat=repeat,
        seed=cell.seed_for(repeat),
        violations=violations,
        telemetry_digest=telemetry_digest(snapshot),
        event_counts=dict(tap.counts),
        headline=headline,
    )


def _run_cell_task(
    cell_data: Dict[str, object],
    repeat: int,
    store_backend: str = "memory",
    store_dir: Optional[str] = None,
) -> Dict[str, object]:
    """Process-pool worker: rebuild the cell from its dict and run it.

    Top-level (picklable) on purpose; ships back a plain dict so the
    coordinator never unpickles custom classes from workers.
    """
    cell = ChaosCell.from_dict(cell_data)
    result = run_cell(cell, repeat=repeat, store_backend=store_backend, store_dir=store_dir)
    return {
        "cell_id": result.cell_id,
        "repeat": result.repeat,
        "seed": result.seed,
        "violations": [v.to_dict() for v in result.violations],
        "telemetry_digest": result.telemetry_digest,
        "event_counts": result.event_counts,
        "headline": result.headline,
    }


def _result_from_dict(data: Mapping[str, object]) -> CellRunResult:
    return CellRunResult(
        cell_id=data["cell_id"],
        repeat=data["repeat"],
        seed=data["seed"],
        violations=[
            Violation(v["invariant"], v["minute"], v["detail"])
            for v in data["violations"]
        ],
        telemetry_digest=data["telemetry_digest"],
        event_counts=dict(data["event_counts"]),
        headline=dict(data["headline"]),
    )


def run_matrix(
    cells: Sequence[ChaosCell],
    repeats: int = 2,
    workers: int = 1,
    bundle_dir: Optional[str] = None,
    store_backend: str = "memory",
    store_dir: Optional[str] = None,
) -> List[CellReport]:
    """Sweep ``cells`` (x ``repeats`` runs each), optionally in parallel.

    ``workers`` > 1 fans the (cell, repeat) tasks over a process pool —
    every run is independent (own simulator, registry, tap), so results
    are bit-identical to a serial sweep.  Failing runs are written as
    replay bundles into ``bundle_dir`` when given.  ``store_backend`` /
    ``store_dir`` apply to every run (see :func:`run_cell`) and do not
    change cell ids or digests.
    """
    if repeats < 1:
        raise EvaluationError(f"repeats must be >= 1, got {repeats}")
    tasks = [(cell, rep) for cell in cells for rep in range(repeats)]
    raw: Dict[tuple, Dict[str, object]] = {}
    if workers > 1 and len(tasks) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            futures = {
                (cell.cell_id, rep): pool.submit(
                    _run_cell_task, cell.canonical(), rep, store_backend, store_dir
                )
                for cell, rep in tasks
            }
            for key, future in futures.items():
                raw[key] = future.result()
    else:
        for cell, rep in tasks:
            raw[(cell.cell_id, rep)] = _run_cell_task(
                cell.canonical(), rep, store_backend, store_dir
            )
    reports: List[CellReport] = []
    for cell in cells:
        report = CellReport(cell=cell)
        for rep in range(repeats):
            result = _result_from_dict(raw[(cell.cell_id, rep)])
            report.runs.append(result)
            if not result.passed and bundle_dir:
                write_replay_bundle(bundle_dir, cell, result)
        reports.append(report)
    return reports


# -- replay bundles ------------------------------------------------------------


def write_replay_bundle(
    bundle_dir: str, cell: ChaosCell, result: CellRunResult
) -> str:
    """Persist a failing run so ``repro chaos --replay`` can reproduce it."""
    os.makedirs(bundle_dir, exist_ok=True)
    path = os.path.join(bundle_dir, f"chaos-{cell.cell_id}-r{result.repeat}.json")
    payload = {
        "cell": cell.canonical(),
        "cell_id": cell.cell_id,
        "repeat": result.repeat,
        "seed": result.seed,
        "telemetry_digest": result.telemetry_digest,
        "violations": [v.to_dict() for v in result.violations],
        "event_counts": result.event_counts,
        "headline": result.headline,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    return path


def load_replay_bundle(path: str) -> Dict[str, object]:
    """Load one replay bundle through
    :func:`repro.sim.parity.load_json_artifact`: bad input raises
    :class:`~repro.errors.ParityArtifactError` with the exact reason."""
    return load_json_artifact(path, "replay bundle", _BUNDLE_REQUIRED_KEYS)


def replay_cell(
    matrix: ChaosMatrix,
    cell_id: str,
    repeat: int = 0,
    expected_digest: Optional[str] = None,
    store_backend: str = "memory",
    store_dir: Optional[str] = None,
) -> CellRunResult:
    """Re-run one cell bit-identically from its id.

    When ``expected_digest`` is given (from a sweep log or a replay
    bundle), a digest mismatch raises
    :class:`~repro.errors.EvaluationError` — the replay did *not*
    reproduce the original run, which is itself a determinism bug worth
    failing loudly over.
    """
    if repeat < 0:
        raise EvaluationError(f"repeat must be >= 0, got {repeat}")
    cell = matrix.cell_by_id(cell_id)
    result = run_cell(cell, repeat=repeat, store_backend=store_backend, store_dir=store_dir)
    if expected_digest is not None and result.telemetry_digest != expected_digest:
        raise EvaluationError(
            f"replay of cell {cell_id} (repeat {repeat}) produced telemetry "
            f"digest {result.telemetry_digest[:16]}… but the recorded run had "
            f"{expected_digest[:16]}… — the cell is not replaying "
            "bit-identically"
        )
    return result
