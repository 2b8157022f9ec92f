"""Which store backends the replay fast path accepts, and which it refuses.

Converged replay freezes a per-execution effect and stops feeding the
store.  On the ``log`` backend the effect carries the execution's journal
frames, which replay renders from the uid counters and writes through
``LogBackend.append_frame`` — so the durable log stays complete and
``log`` is eligible.  Any other journaling backend (one replay cannot
render frames for, or a shard fleet whose backends disagree) would be
left silently incomplete and stays refused.  The gate lives in
``supports_snapshot_replay``, which the one eligibility predicate
(``repro.sim.events.replay_refusal``) consults at
:class:`~repro.sim.events.ReplayIngestor` construction and again at the
freeze cutover.  These tests pin both seams plus the event runner's
fallback to full-fidelity ingestion.
"""

import inspect

import pytest

from repro.apps.catalog import load_scenario
from repro.evalx.experiment import ExperimentConfig, build_simulator
from repro.graphstore.backend import GraphStoreBackend, LogBackend
from repro.sim.events import EventDrivenRunner, ReplayIngestor, replay_refusal
from repro.telemetry import MetricsRegistry


class _OpaqueJournal(GraphStoreBackend):
    """A journaling backend replay knows nothing about: no frames to render."""

    kind = "opaque"
    journaling = True


def _simulator(backend, tmp_path, engine="event", shards=1):
    config = ExperimentConfig(
        duration_minutes=8, seed=7, engine=engine, store_backend=backend,
        store_dir=str(tmp_path / backend) if backend == "log" else None,
        num_shards=shards,
    )
    return build_simulator(
        load_scenario("hedwig"), "DCA-10%", config, registry=MetricsRegistry()
    )


def _opaque_simulator(tmp_path):
    """A memory simulator whose store reports an unknown journaling backend
    (what a backend swapped in behind the tracker looks like)."""
    simulator = _simulator("memory", tmp_path)
    simulator.dca.tracker.store.backend = _OpaqueJournal()
    return simulator


def _mixed_fleet_simulator(tmp_path):
    """A 4-shard memory simulator whose shard 0 journals into a log: a
    fleet of one ``log`` shard and three ``memory`` shards."""
    simulator = _simulator("memory", tmp_path, shards=4)
    store = simulator.dca.tracker.store
    store.shards[0].backend = LogBackend(
        str(tmp_path / "mixed"), registry=simulator.telemetry
    )
    assert [shard.backend_kind for shard in store.shards] == ["log"] + ["memory"] * 3
    assert store.backend_kind == "mixed"
    return simulator


def test_supports_snapshot_replay_is_backend_gated(tmp_path):
    for backend in ("memory", "log"):
        simulator = _simulator(backend, tmp_path)
        try:
            assert simulator.dca.tracker.supports_snapshot_replay, backend
        finally:
            simulator.dca.tracker.store.close()
    assert not _opaque_simulator(tmp_path).dca.tracker.supports_snapshot_replay
    simulator = _mixed_fleet_simulator(tmp_path)
    try:
        assert not simulator.dca.tracker.supports_snapshot_replay
    finally:
        simulator.dca.tracker.store.close()


def test_replay_ingestor_refuses_journaling_backend(tmp_path):
    with pytest.raises(ValueError, match="snapshot replay"):
        ReplayIngestor(_opaque_simulator(tmp_path))
    simulator = _mixed_fleet_simulator(tmp_path)
    try:
        with pytest.raises(ValueError, match="snapshot replay"):
            ReplayIngestor(simulator)
    finally:
        simulator.dca.tracker.store.close()


def test_event_runner_falls_back_to_full_ingestion(tmp_path):
    assert not EventDrivenRunner(_opaque_simulator(tmp_path))._replay_eligible
    simulator = _mixed_fleet_simulator(tmp_path)
    try:
        assert not EventDrivenRunner(simulator)._replay_eligible
    finally:
        simulator.dca.tracker.store.close()

    for backend in ("memory", "log"):
        simulator = _simulator(backend, tmp_path)
        try:
            assert EventDrivenRunner(simulator)._replay_eligible, backend
        finally:
            simulator.dca.tracker.store.close()


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


def test_frozen_run_would_skip_journal_writes(tmp_path, monkeypatch):
    """The converse of why the gate used to refuse ``log``: replay executes
    nothing, yet everything journals.

    A log-backend event run cuts over, and from the cutover on the
    journal still gains exactly one frame per observed message and one
    per eviction — rendered by replay, not written by the store.
    """
    simulator = _simulator("log", tmp_path, engine="event")
    simulator.config.duration_minutes = 120
    registry = simulator.telemetry
    keys = ("graphstore.backend_records", "tracker.messages_observed", "graphstore.evictions")
    at_cutover = {}
    freeze_all = ReplayIngestor._freeze_all

    def spy_freeze(self, now):
        freeze_all(self, now)
        if self.replaying:
            at_cutover.update({key: registry.counter(key).value for key in keys})

    monkeypatch.setattr(ReplayIngestor, "_freeze_all", spy_freeze)
    simulator.run()
    ingestor = simulator.event_runner.ingestor
    assert ingestor is not None and ingestor.replaying
    assert ingestor.replayed_executions > 0
    records, observed, evictions = (
        registry.counter(key).value - at_cutover[key] for key in keys
    )
    assert observed > 0 and evictions == ingestor.replayed_executions
    assert records == observed + evictions
