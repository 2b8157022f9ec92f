"""Pipeline-drain ↔ cutover-freeze ordering (the durability contract).

``ReplayIngestor._freeze_all`` stops ingestion from ever feeding the
store again, so any write still buffered in the
:class:`~repro.graphstore.pipeline.BatchedWritePipeline` at that moment
would be stranded forever.  The contract (documented in the freeze's
docstring, pinned here): the tracker's pipeline is drained — journal
flush included — *before* any class delta is frozen, and the drain
lands at the log backend's durability point (bytes fsynced, not just
buffered in the process).
"""

from types import SimpleNamespace

from repro.apps.catalog import load_scenario
from repro.core.causal_graph import DirectCausalityTracker
from repro.evalx.experiment import ExperimentConfig, build_simulator
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.graphstore.backend import LogBackend
from repro.graphstore.store import GraphStore
from repro.lang.ir import CLIENT, EXTERNAL
from repro.lang.message import Message, MessageUid
from repro.profiling.profiler import CausalPathProfiler
from repro.sim import events
from repro.sim.engine import SimulationConfig
from repro.sim.events import ReplayIngestor, replay_refusal
from repro.telemetry import MetricsRegistry


def _chain(n=6, seq_base=1):
    root = Message(MessageUid("h", 1, seq_base), "req", EXTERNAL, "A")
    msgs = [root]
    for i in range(n):
        prev = msgs[-1]
        dest = CLIENT if i == n - 1 else f"C{i}"
        msgs.append(
            Message(
                MessageUid("h", 1, seq_base + 1 + i), f"m{i}", prev.dest, dest,
                cause_uids=frozenset({prev.uid}), root_uid=root.uid,
            )
        )
    return msgs


def _logged_cutover(monkeypatch):
    """Run a sharded/batched marketcetera cutover, logging every drain (with
    what was buffered), every frozen delta read and every replayed
    execution in call order."""
    log = []
    orig_drain = DirectCausalityTracker.drain_pipeline
    orig_apply = ReplayIngestor._apply
    orig_replay_ops = events._replay_ops

    def spy_drain(self):
        log.append(("drain", self.buffered_writes))
        return orig_drain(self)

    def spy_apply(self, state, live, remainder, now):
        log.append(("apply", None))
        return orig_apply(self, state, live, remainder, now)

    def spy_replay_ops(delta, by_key):
        log.append(("freeze", None))
        return orig_replay_ops(delta, by_key)

    monkeypatch.setattr(DirectCausalityTracker, "drain_pipeline", spy_drain)
    monkeypatch.setattr(ReplayIngestor, "_apply", spy_apply)
    monkeypatch.setattr(events, "_replay_ops", spy_replay_ops)

    sim_config = SimulationConfig(max_live_traces_per_class=16)
    config = ExperimentConfig(
        duration_minutes=40,
        seed=11,
        sim=sim_config,
        engine="event",
        num_shards=4,
        write_batch_size=32,
    )
    simulator = build_simulator(
        load_scenario("marketcetera"), "DCA-100%", config=config
    )
    simulator.run()
    ingestor = simulator.event_runner.ingestor
    assert ingestor is not None and ingestor.replaying
    return log


class TestFreezeOrdering:
    def test_drain_happens_before_first_replayed_execution(self, monkeypatch):
        """Behavioral pin on a real sharded/batched cutover run.

        ``drain_pipeline`` has exactly one production caller —
        ``_freeze_all`` — so the call log proves the ordering: one
        drain, with nothing buffered (every warmup ``observe_all`` ends
        in a flush), strictly before the first replayed execution.
        """
        log = _logged_cutover(monkeypatch)
        drains = [entry for entry in log if entry[0] == "drain"]
        assert len(drains) == 1
        assert drains[0][1] == 0  # warmup left nothing buffered
        assert log.index(drains[0]) < log.index(("apply", None))

    def test_freeze_drains_before_reading_deltas(self, monkeypatch):
        """A freeze that read the class deltas first and drained later
        would still pass the test above on happy paths (buffers are
        empty there); the call log catches the reordering itself."""
        log = _logged_cutover(monkeypatch)
        freezes = [i for i, entry in enumerate(log) if entry[0] == "freeze"]
        assert freezes
        assert log.index(("drain", 0)) < freezes[0]


class TestLogBackendDurabilityPoint:
    def test_drain_reaches_fsynced_journal_without_close(self, tmp_path):
        """Crash-after-drain must lose nothing: ``drain_pipeline`` on a
        batched tracker over the log backend flushes the journal (the
        default ``fsync='flush'`` policy syncs it), so a reopen that
        never saw ``close()`` recovers every drained record."""
        registry = MetricsRegistry()
        backend = LogBackend(str(tmp_path), registry=registry)
        store = GraphStore(registry=registry, backend=backend)
        profiler = CausalPathProfiler({}, registry=registry)
        tracker = DirectCausalityTracker(
            profiler, store=store, registry=registry, write_batch_size=1000
        )
        msgs = _chain(6)
        for msg in msgs:
            tracker.observe_message(msg)
        assert tracker.buffered_writes == len(msgs)
        assert store.node_count() == 0  # nothing journaled yet

        written = tracker.drain_pipeline()
        assert written == len(msgs)
        assert tracker.buffered_writes == 0

        # Simulated crash: no close() on the writing store.
        recovery_registry = MetricsRegistry()
        recovered = GraphStore(
            registry=recovery_registry,
            backend=LogBackend(
                str(tmp_path), create=False, registry=recovery_registry
            ),
        )
        recovered.recover()
        assert recovered.node_count() == len(msgs)
        assert sorted(recovered.all_uids()) == sorted(m.uid for m in msgs)

    def test_unbatched_drain_still_flushes_journal(self, tmp_path):
        """batch_size=1 trackers have no pipeline; the drain must fall
        through to ``store.flush_journal`` so the freeze's durability
        point holds for every eligible-adjacent configuration."""
        registry = MetricsRegistry()
        backend = LogBackend(str(tmp_path), fsync="close", registry=registry)
        store = GraphStore(registry=registry, backend=backend)
        profiler = CausalPathProfiler({}, registry=registry)
        tracker = DirectCausalityTracker(profiler, store=store, registry=registry)
        tracker.observe_all(_chain(4))
        before = registry.counter("graphstore.backend_flushes").value
        tracker.drain_pipeline()
        assert registry.counter("graphstore.backend_flushes").value >= before


class TestJournalingBackendsStayIneligible:
    """The ``log`` backend is eligible exactly where a memory store is:
    its frames ride the frozen effect, but only pure-counting ingestion
    has a frozen effect — a path timeout or a fault injector still
    refuses, sharded/batched or not."""

    def test_log_backend_refused_even_when_batched(self, tmp_path):
        def tracker(name, **options):
            registry = MetricsRegistry()
            backend = LogBackend(str(tmp_path / name), registry=registry)
            store = GraphStore(registry=registry, backend=backend)
            profiler = CausalPathProfiler({}, registry=registry)
            return DirectCausalityTracker(
                profiler, store=store, registry=registry, write_batch_size=32, **options
            )

        def refusal(tracker):
            dca = SimpleNamespace(tracker=tracker, profiler=tracker.profiler, fault_injector=None)
            return replay_refusal(SimpleNamespace(dca=dca, faults=None, manager=None))

        assert refusal(tracker("plain")) is None
        assert refusal(tracker("timeout", path_timeout_minutes=5)) is not None
        injector = FaultInjector(FaultPlan(seed=1, store_write_failure_rate=0.1))
        assert refusal(tracker("faulted", fault_injector=injector)) is not None
