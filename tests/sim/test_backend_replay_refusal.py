"""The replay fast path must refuse journaling store backends.

Converged replay freezes a telemetry delta and stops feeding the store;
with a journaling backend that would leave the durable log silently
incomplete (records for replayed executions simply never written).  The
eligibility gate lives in ``supports_snapshot_replay``, which the one
eligibility predicate (``repro.sim.events.replay_refusal``) consults at
:class:`~repro.sim.events.ReplayIngestor` construction and again at the
freeze cutover.  These tests pin both seams plus the
event runner's fallback to full-fidelity ingestion.
"""

import inspect

import pytest

from repro.apps.catalog import load_scenario
from repro.evalx.experiment import ExperimentConfig, build_simulator
from repro.sim.events import EventDrivenRunner, ReplayIngestor, replay_refusal
from repro.telemetry import MetricsRegistry


def _simulator(backend, tmp_path, engine="event"):
    config = ExperimentConfig(
        duration_minutes=8, seed=7, engine=engine, store_backend=backend,
        store_dir=str(tmp_path / backend) if backend == "log" else None,
    )
    return build_simulator(
        load_scenario("hedwig"), "DCA-10%", config, registry=MetricsRegistry()
    )


def test_supports_snapshot_replay_is_backend_gated(tmp_path):
    assert _simulator("memory", tmp_path).dca.tracker.supports_snapshot_replay
    for backend in ("log", "shared"):
        simulator = _simulator(backend, tmp_path)
        try:
            assert not simulator.dca.tracker.supports_snapshot_replay, backend
        finally:
            simulator.dca.tracker.store.close()


def test_replay_ingestor_refuses_journaling_backend(tmp_path):
    simulator = _simulator("log", tmp_path)
    try:
        with pytest.raises(ValueError, match="snapshot replay"):
            ReplayIngestor(simulator)
    finally:
        simulator.dca.tracker.store.close()


def test_event_runner_falls_back_to_full_ingestion(tmp_path):
    simulator = _simulator("log", tmp_path, engine="event")
    runner = EventDrivenRunner(simulator)
    assert not runner._replay_eligible
    simulator.dca.tracker.store.close()

    eligible = EventDrivenRunner(_simulator("memory", tmp_path, engine="event"))
    assert eligible._replay_eligible


def test_freeze_cutover_rechecks_eligibility():
    """Introspection pin: the cutover re-evaluates ``replay_refusal``.

    Construction-time checks alone would miss a store/backend swap after
    the ingestor was built; the freeze condition must consult the one
    eligibility predicate — and through it the tracker's *live*
    ``supports_snapshot_replay`` — again.  Pinned on source (the check
    has no behavioural trace in an eligible run) so a refactor that
    drops the re-check fails here, not in a silent-data-loss postmortem.
    """
    assert "replay_refusal(self.sim)" in inspect.getsource(ReplayIngestor.ingest)
    assert "supports_snapshot_replay" in inspect.getsource(replay_refusal)


def test_frozen_run_would_skip_journal_writes(tmp_path):
    """Why the gate exists: replay executes nothing, so nothing journals.

    A memory-backend event run cuts over to replay; if that were allowed
    on the log backend, every post-cutover execution would be absent
    from the log.  Assert the premise: the eligible run really does stop
    live-executing after convergence.
    """
    simulator = _simulator("memory", tmp_path, engine="event")
    simulator.config.duration_minutes = 120
    simulator.run()
    ingestor = simulator.event_runner.ingestor
    assert ingestor is not None and ingestor.replaying
    assert ingestor.replayed_executions > 0
