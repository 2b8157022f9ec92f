"""Tick-vs-event engine equivalence checking (the parity oracle).

The event engine (:mod:`repro.sim.events`) claims bit-identical
results to the fixed-tick loop for any seeded configuration.  This
module is the claim's enforcement surface: it builds the *same* seeded
experiment twice — once per engine, each with a fresh telemetry
registry — runs both, and diffs

* the :class:`~repro.sim.metrics.IntervalRecord` streams (value
  equality of the frozen dataclasses, interval by interval, field by
  field),
* the telemetry snapshots (every non-volatile metric key), and
* the engine-level fault counters (``nodes_failed_total``).

The ``engine-parity`` CI job runs :func:`run_engine_parity` over every
scenario and manager; on divergence the :class:`ParityReport` is dumped
as a JSON artifact (set ``PARITY_DIFF_DIR``) so the differing records
can be inspected without re-running the job.

Volatile keys — wall-clock ``*_seconds`` timers and the
``graphstore.backend_*`` persistence diagnostics — are excluded; see
:mod:`repro.sim.events` for the rationale.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.errors import ParityArtifactError
from repro.sim.events import is_volatile_metric_key
from repro.sim.metrics import SimulationResult
from repro.telemetry import MetricsRegistry

#: Environment variable naming a directory for JSON diff artifacts.
PARITY_DIFF_DIR_ENV = "PARITY_DIFF_DIR"

#: Differences a diff helper lists before it stops looking.
DIFF_LIMIT = 20

#: Keys every dumped parity artifact must carry; a JSON file missing any
#: of them was not written by :meth:`ParityReport.to_dict` (truncated
#: write, disk full, wrong file) and must not be interpreted.
_REPORT_REQUIRED_KEYS = (
    "scenario",
    "manager",
    "seed",
    "duration_minutes",
    "ok",
    "record_diffs",
    "snapshot_diffs",
    "state_diffs",
)


@dataclass
class ParityReport:
    """Outcome of one tick-vs-event equivalence run."""

    scenario: str
    manager: str
    seed: int
    duration_minutes: int
    #: Human-readable divergences; empty means the engines agree.
    record_diffs: List[str] = field(default_factory=list)
    snapshot_diffs: List[str] = field(default_factory=list)
    state_diffs: List[str] = field(default_factory=list)
    #: Diverging interval records, serialised for the CI artifact.
    diff_records: List[Dict[str, object]] = field(default_factory=list)
    #: Whether the event engine's converged-replay cutover fired during
    #: this run (``None`` when no replay ingestor was even constructed —
    #: faulted and baseline configs).  Parity cells for
    #: production configs assert on this so a silently-disengaged fast
    #: path cannot masquerade as a parity pass.
    replay_engaged: Optional[bool] = None
    replayed_executions: int = 0

    @property
    def ok(self) -> bool:
        return not (self.record_diffs or self.snapshot_diffs or self.state_diffs)

    def summary(self) -> str:
        status = "OK" if self.ok else "DIVERGED"
        return (
            f"[{status}] {self.scenario}/{self.manager} seed={self.seed} "
            f"duration={self.duration_minutes}: "
            f"{len(self.record_diffs)} record, {len(self.snapshot_diffs)} snapshot, "
            f"{len(self.state_diffs)} state diff(s)"
        )

    def to_dict(self) -> Dict[str, object]:
        return {
            "scenario": self.scenario,
            "manager": self.manager,
            "seed": self.seed,
            "duration_minutes": self.duration_minutes,
            "ok": self.ok,
            "record_diffs": self.record_diffs,
            "snapshot_diffs": self.snapshot_diffs,
            "state_diffs": self.state_diffs,
            "diff_records": self.diff_records,
            "replay_engaged": self.replay_engaged,
            "replayed_executions": self.replayed_executions,
        }


def _record_dict(record) -> Dict[str, object]:
    """JSON-safe dump of one IntervalRecord (artifact payload)."""
    out = dataclasses.asdict(record)
    out["components"] = {
        name: dataclasses.asdict(comp) for name, comp in record.components.items()
    }
    return out


def diff_results(tick: SimulationResult, event: SimulationResult) -> List[str]:
    """Field-level differences between two IntervalRecord streams."""
    diffs: List[str] = []
    if len(tick.records) != len(event.records):
        diffs.append(
            f"record count: tick={len(tick.records)} event={len(event.records)}"
        )
    for i, (a, b) in enumerate(zip(tick.records, event.records)):
        if a == b:
            continue
        for f in dataclasses.fields(a):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if va != vb:
                diffs.append(f"interval[{i}].{f.name}: tick={va!r} event={vb!r}")
                if len(diffs) >= DIFF_LIMIT:
                    return diffs
    return diffs


def diff_snapshots(tick: Dict[str, object], event: Dict[str, object]) -> List[str]:
    """Differences between two telemetry snapshots, volatile keys excluded."""
    diffs: List[str] = []
    a_metrics = tick.get("metrics", {})
    b_metrics = event.get("metrics", {})
    keys = sorted(set(a_metrics) | set(b_metrics))
    for key in keys:
        if is_volatile_metric_key(key):
            continue
        va, vb = a_metrics.get(key), b_metrics.get(key)
        if va != vb:
            diffs.append(f"metric {key}: tick={va!r} event={vb!r}")
            if len(diffs) >= DIFF_LIMIT:
                break
    return diffs


def run_engine_parity(
    scenario_name: str,
    manager_name: str,
    duration_minutes: int = 120,
    seed: int = 7,
    num_shards: int = 1,
    write_batch_size: int = 1,
    fault_plan=None,
    path_timeout_minutes: Optional[float] = None,
    max_live_traces_per_class: Optional[int] = None,
    profiler_mode: str = "exact",
    interval_minutes: Optional[float] = None,
) -> ParityReport:
    """Run one seeded configuration under both engines and diff them.

    Every knob that shapes the run — shards, write batching, fault
    plans, path timeouts, live-trace caps, interval length — is accepted
    so CI can prove parity composes with the whole configuration space,
    not just the defaults.  ``interval_minutes`` matters for the
    fault-window boundary contract: ``FaultPlan.active_at`` is half-open
    (``start <= minute < end``) and both engines must agree at exactly
    ``end_minute`` for any interval length (the event engine snaps
    crash/delivery timestamps to interval boundaries).  On divergence
    the report is written to ``$PARITY_DIFF_DIR`` as JSON.
    """
    from repro.apps.catalog import load_scenario
    from repro.evalx.experiment import ExperimentConfig, build_simulator
    from repro.sim.engine import SimulationConfig

    results: Dict[str, SimulationResult] = {}
    snapshots: Dict[str, Dict[str, object]] = {}
    failed_totals: Dict[str, int] = {}
    for engine in ("tick", "event"):
        scenario = load_scenario(scenario_name)
        sim_config = SimulationConfig()
        if max_live_traces_per_class is not None:
            sim_config.max_live_traces_per_class = max_live_traces_per_class
        if interval_minutes is not None:
            sim_config.interval_minutes = interval_minutes
        config = ExperimentConfig(
            duration_minutes=duration_minutes,
            seed=seed,
            sim=sim_config,
            num_shards=num_shards,
            write_batch_size=write_batch_size,
            engine=engine,
            profiler_mode=profiler_mode,
        )
        registry = MetricsRegistry()
        simulator = build_simulator(
            scenario,
            manager_name,
            config,
            registry=registry,
            fault_plan=fault_plan,
            path_timeout_minutes=path_timeout_minutes,
        )
        results[engine] = simulator.run()
        snapshots[engine] = registry.snapshot()
        failed_totals[engine] = simulator.nodes_failed_total
        if engine == "event":
            ingestor = simulator.event_runner.ingestor
            replay_engaged = None if ingestor is None else ingestor.replaying
            replayed_executions = 0 if ingestor is None else ingestor.replayed_executions

    report = ParityReport(
        scenario=scenario_name,
        manager=manager_name,
        seed=seed,
        duration_minutes=duration_minutes,
        record_diffs=diff_results(results["tick"], results["event"]),
        snapshot_diffs=diff_snapshots(snapshots["tick"], snapshots["event"]),
        replay_engaged=replay_engaged,
        replayed_executions=replayed_executions,
    )
    if failed_totals["tick"] != failed_totals["event"]:
        report.state_diffs.append(
            f"nodes_failed_total: tick={failed_totals['tick']} "
            f"event={failed_totals['event']}"
        )
    if not report.ok:
        for i, (a, b) in enumerate(zip(results["tick"].records, results["event"].records)):
            if a != b and len(report.diff_records) < 10:
                report.diff_records.append(
                    {"interval": i, "tick": _record_dict(a), "event": _record_dict(b)}
                )
        _dump_report(report)
    return report


def _dump_report(report: ParityReport, diff_dir: Optional[str] = None) -> Optional[str]:
    """Write a diverging report as a JSON artifact into ``diff_dir`` (else
    ``$PARITY_DIFF_DIR``, else nowhere); return its path."""
    target = diff_dir if diff_dir is not None else os.environ.get(PARITY_DIFF_DIR_ENV)
    if not target:
        return None
    os.makedirs(target, exist_ok=True)
    safe_manager = report.manager.replace("%", "pct").replace("+", "_")
    path = os.path.join(
        target, f"parity-{report.scenario}-{safe_manager}-seed{report.seed}.json"
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True, default=str)
    return path


# -- artifact loading (hardened: a bad artifact raises, never reads clean) -----


def load_json_artifact(path: str, kind: str, required_keys: Sequence[str]) -> Dict[str, object]:
    """Load one JSON-object artifact, failing loudly on bad input.

    The one loader behind :func:`load_parity_report` and
    :func:`repro.chaos.runner.load_replay_bundle`.  A file that is
    missing, unreadable (a directory, no permission), not UTF-8, empty,
    not JSON, not a JSON object, or missing any of ``required_keys``
    raises :class:`~repro.errors.ParityArtifactError` naming ``kind``,
    ``path`` and the reason — never returning a dict a caller could
    misread as a clean run: silent passes on corrupt CI artifacts are
    worse than failures.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except FileNotFoundError as exc:
        raise ParityArtifactError(f"{kind} not found: {path}") from exc
    except (OSError, ValueError) as exc:
        raise ParityArtifactError(f"cannot read {kind} {path}: {exc}") from exc
    if not raw.strip():
        raise ParityArtifactError(
            f"{kind} {path} is empty (partially-written or truncated dump) — "
            "treat the run as failed, not passed"
        )
    try:
        data = json.loads(raw)
    except ValueError as exc:
        raise ParityArtifactError(f"{kind} {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParityArtifactError(
            f"{kind} {path} must be a JSON object, got {type(data).__name__}"
        )
    missing = [key for key in required_keys if key not in data]
    if missing:
        raise ParityArtifactError(f"{kind} {path} is missing required keys {missing}")
    return data


def load_parity_report(path: str) -> Dict[str, object]:
    """Load one dumped parity artifact (a :meth:`ParityReport.to_dict`),
    through :func:`load_json_artifact`, and check its diff lists."""
    data = load_json_artifact(path, "parity artifact", _REPORT_REQUIRED_KEYS)
    for key in ("record_diffs", "snapshot_diffs", "state_diffs"):
        if not isinstance(data[key], list):
            raise ParityArtifactError(
                f"parity artifact {path}: {key!r} must be a list, "
                f"got {type(data[key]).__name__}"
            )
    if data["ok"] and (
        data["record_diffs"] or data["snapshot_diffs"] or data["state_diffs"]
    ):
        raise ParityArtifactError(
            f"parity artifact {path} is inconsistent: ok=true but diffs present"
        )
    return data


def scan_parity_diff_dir(target: Optional[str] = None) -> List[Dict[str, object]]:
    """Load every parity artifact under ``target`` (or ``$PARITY_DIFF_DIR``).

    Returns the loaded reports (possibly empty when the directory exists
    but holds no ``parity-*.json`` — a legitimate all-passed outcome).
    Raises :class:`~repro.errors.ParityArtifactError` when the directory
    is missing or any artifact inside it is malformed: a CI job that
    *points* at a diff dir and then cannot read what it finds there must
    not report success.
    """
    if target is None:
        target = os.environ.get(PARITY_DIFF_DIR_ENV)
    if not target:
        raise ParityArtifactError(
            "no parity diff directory given (argument empty and "
            f"${PARITY_DIFF_DIR_ENV} unset)"
        )
    if not os.path.isdir(target):
        raise ParityArtifactError(f"parity diff directory not found: {target}")
    reports: List[Dict[str, object]] = []
    for name in sorted(os.listdir(target)):
        if name.startswith("parity-") and name.endswith(".json"):
            reports.append(load_parity_report(os.path.join(target, name)))
    return reports
