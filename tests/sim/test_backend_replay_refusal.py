"""Which store backends the replay fast path accepts, and which it refuses.

Converged replay freezes a per-execution effect and stops feeding the
store.  On the ``log`` backend the effect carries the execution's journal
frames, which replay renders from the uid counters and writes through
``LogBackend.append_frame`` — so the durable log stays complete and
``log`` is eligible.  Any other journaling backend (one replay cannot
render frames for, or a shard fleet whose backends disagree) would be
left silently incomplete and stays refused.  The gate lives in the one
eligibility predicate (``repro.sim.events.replay_refusal``), consulted at
:class:`~repro.sim.events.ReplayIngestor` construction and again at the
freeze cutover.  These tests pin both seams plus the event runner's
fallback to full-fidelity ingestion.
"""

import pytest

from repro.apps.catalog import load_scenario
from repro.evalx.experiment import ExperimentConfig, build_simulator
from repro.graphstore.backend import GraphStoreBackend, LogBackend
from repro.sim.events import EventDrivenRunner, ReplayIngestor, replay_refusal
from repro.sim.metrics import SimulationResult
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


def test_replay_refusal_is_backend_gated(tmp_path):
    for backend in ("memory", "log"):
        simulator = _simulator(backend, tmp_path)
        try:
            assert replay_refusal(simulator) is None, backend
        finally:
            simulator.dca.tracker.store.close()
    assert replay_refusal(_opaque_simulator(tmp_path)) is not None
    simulator = _mixed_fleet_simulator(tmp_path)
    try:
        assert replay_refusal(simulator) is not None
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


def test_freeze_cutover_rechecks_eligibility(tmp_path):
    """The cutover re-evaluates ``replay_refusal``, not just construction.

    A tracker reconfigured behind an already-built ingestor — a path
    timeout set, or a journaling backend replay cannot render frames for
    swapped in — must keep the run live although every class converges.
    """
    for change in ("path timeout", "opaque backend"):
        simulator = _simulator("memory", tmp_path)
        simulator.config.duration_minutes = 120
        ingestor = ReplayIngestor(simulator)
        tracker = simulator.dca.tracker
        if change == "path timeout":
            tracker.path_timeout_minutes = 5.0
        else:
            tracker.store.backend = _OpaqueJournal()
        refusal = replay_refusal(simulator)
        assert refusal == "tracker configuration does not support snapshot replay", change
        result = SimulationResult(
            manager_name=simulator.manager.name, application=simulator.app.name
        )
        for minute in range(simulator.config.num_intervals):
            simulator.run_interval(float(minute), result, ingestor=ingestor.ingest)
        assert all(state.converged for state in ingestor.states.values()), change
        assert not ingestor.replaying and ingestor.replayed_executions == 0, change


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
