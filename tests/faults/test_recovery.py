"""Recovery-mechanism tests: what the system does when faults fire.

Covers the four mechanisms plus the end-to-end acceptance scenario:
retry + dead-letter on store writes, path-timeout abandonment, delayed
delivery, dangling-edge repair, and the staleness fallback of the DCA
manager — all asserted through the same telemetry counters operators
would read.
"""

import pytest

from repro.core.causal_graph import DirectCausalityTracker
from repro.core.dca import analyze_application
from repro.core.elasticity import ProfileStalenessDetector, StalenessPolicy
from repro.core.paths import enumerate_causal_paths
from repro.faults import FaultInjector, FaultPlan
from repro.graphstore.store import GraphStore
from repro.profiling.profiler import CausalPathProfiler
from repro.sim.runtime import ApplicationRuntime
from repro.telemetry import MetricsRegistry
from repro.workloads.generator import RequestClass

REQUEST = RequestClass("go", "start", {"x": 5})


def _pipeline(pipeline_app, plan=None, path_timeout=None, **tracker_kwargs):
    """Runtime + profiler + tracker wired over one fresh registry."""
    registry = MetricsRegistry()
    dca = analyze_application(pipeline_app)
    runtime = ApplicationRuntime(pipeline_app, dca_result=dca)
    profiler = CausalPathProfiler(enumerate_causal_paths(pipeline_app), registry=registry)
    injector = FaultInjector(plan, registry=registry) if plan is not None else None
    tracker = DirectCausalityTracker(
        profiler,
        store=GraphStore(registry=registry),
        registry=registry,
        fault_injector=injector,
        path_timeout_minutes=path_timeout,
        **tracker_kwargs,
    )
    return runtime, profiler, tracker, registry


class TestRetryDeadLetter:
    def test_transient_failures_absorbed_by_retry(self, pipeline_app):
        # ~30% failure per attempt: with 3 retries the chance a message
        # exhausts all 4 attempts is under 1%, so (almost) every message
        # lands and every path completes — unbatched and batched alike.
        plan = FaultPlan(seed=1, store_write_failure_rate=0.30)
        for batch_size in (1, 16):
            runtime, _, tracker, registry = _pipeline(
                pipeline_app, plan, write_batch_size=batch_size
            )
            for _ in range(25):
                trace = runtime.execute_request(REQUEST, sampled=True)
                tracker.observe_all(trace.messages)
            assert registry.get("tracker.store_write_retries").value > 0
            assert registry.get("tracker.retry_backoff_ms").value > 0
            assert (
                tracker.completed_paths + registry.get("tracker.dead_letters").value > 0
            )
            assert tracker.completed_paths >= 20

    def test_exhausted_retries_dead_letter_without_crashing(self, pipeline_app):
        plan = FaultPlan(seed=1, store_write_failure_rate=1.0)
        runtime, profiler, tracker, registry = _pipeline(pipeline_app, plan)
        trace = runtime.execute_request(REQUEST, sampled=True)
        tracker.observe_all(trace.messages)  # must not raise
        assert registry.get("tracker.dead_letters").value == len(trace.messages)
        # max_write_retries failed retries per message before dead-lettering
        assert registry.get("tracker.store_write_retries").value == 3 * len(trace.messages)
        assert tracker.completed_paths == 0
        assert tracker.store.node_count() == 0
        assert sum(profiler.counts(0.0).values()) == 0

    def test_non_transient_store_errors_propagate(self, pipeline_app):
        # Only the injector's write-fault roll is retried; an exception
        # out of the store write itself is a programming error and must
        # escape observe_all, uncounted.
        class BrokenStore(GraphStore):
            def add_message(self, message):
                raise RuntimeError("store bug")

        runtime, _, _, _ = _pipeline(pipeline_app)
        trace = runtime.execute_request(REQUEST, sampled=True)
        for batch_size in (1, 16):
            registry = MetricsRegistry()
            tracker = DirectCausalityTracker(
                CausalPathProfiler({}, registry=registry),
                store=BrokenStore(registry=registry),
                registry=registry,
                fault_injector=FaultInjector(FaultPlan(seed=1), registry=registry),
                write_batch_size=batch_size,
            )
            with pytest.raises(RuntimeError, match="store bug"):
                tracker.observe_all(trace.messages)
            assert registry.get("tracker.store_write_retries").value == 0
            assert registry.get("tracker.dead_letters").value == 0
            assert len(tracker.dead_letters) == 0


class TestPathTimeoutAbandonment:
    def test_partial_path_abandoned_and_reclaimed(self, pipeline_app):
        runtime, _, tracker, registry = _pipeline(pipeline_app, path_timeout=5.0)
        trace = runtime.execute_request(REQUEST, sampled=True)
        partial = [m for m in trace.messages if m.dest != "__client__"]
        tracker.advance_to(0.0)
        tracker.observe_all(partial)
        assert tracker.store.node_count() == len(partial)
        tracker.advance_to(4.0)  # within the timeout: still pending
        assert registry.get("tracker.paths_abandoned").value == 0
        tracker.advance_to(6.0)
        assert registry.get("tracker.paths_abandoned").value == 1
        assert registry.get("tracker.abandoned_nodes").value == len(partial)
        assert tracker.store.node_count() == 0

    def test_completed_paths_not_abandoned(self, pipeline_app):
        runtime, _, tracker, registry = _pipeline(pipeline_app, path_timeout=5.0)
        tracker.advance_to(0.0)
        trace = runtime.execute_request(REQUEST, sampled=True)
        tracker.observe_all(trace.messages)
        assert tracker.completed_paths == 1
        tracker.advance_to(100.0)
        assert registry.get("tracker.paths_abandoned").value == 0

    def test_orphans_of_dropped_root_are_reclaimed(self, pipeline_app):
        # The root message is lost: its descendants carry root_uid but
        # nothing connects them, so edge-following eviction cannot reach
        # them — only abandon_root's index scan can.
        runtime, _, tracker, registry = _pipeline(pipeline_app, path_timeout=5.0)
        trace = runtime.execute_request(REQUEST, sampled=True)
        root = trace.messages[0]
        assert root.root_uid is None  # first message is the external request
        orphans = [
            m for m in trace.messages if m.uid != root.uid and m.dest != "__client__"
        ]
        tracker.advance_to(0.0)
        tracker.observe_all(orphans)
        tracker.advance_to(10.0)
        assert registry.get("tracker.paths_abandoned").value == 1
        assert tracker.store.node_count() == 0


class TestDelayedDelivery:
    def test_delayed_messages_complete_late(self, pipeline_app):
        plan = FaultPlan(seed=0, message_delay_rate=1.0, message_delay_minutes=2.0)
        runtime, profiler, tracker, registry = _pipeline(pipeline_app, plan)
        tracker.advance_to(0.0)
        trace = runtime.execute_request(REQUEST, sampled=True)
        tracker.observe_all(trace.messages)
        assert tracker.completed_paths == 0  # everything held back
        tracker.advance_to(1.0)
        assert tracker.completed_paths == 0
        tracker.advance_to(2.0)
        assert registry.get("tracker.delayed_messages_delivered").value == len(trace.messages)
        assert tracker.completed_paths == 1
        # The completion is recorded at delivery time, not send time.
        assert sum(profiler.counts_between(2.0, 2.0).values()) == 1

    def test_delivery_does_not_reroll_delay(self, pipeline_app):
        # Rate 1.0 would delay forever if delivery re-rolled the channel.
        plan = FaultPlan(seed=0, message_delay_rate=1.0, message_delay_minutes=1.0)
        runtime, _, tracker, _ = _pipeline(pipeline_app, plan)
        trace = runtime.execute_request(REQUEST, sampled=True)
        tracker.advance_to(0.0)
        tracker.observe_all(trace.messages)
        tracker.advance_to(1.0)
        assert tracker.completed_paths == 1


class TestEdgeLossAndDuplication:
    def test_edge_loss_strips_causes_but_keeps_messages(self, pipeline_app):
        plan = FaultPlan(seed=0, edge_loss_rate=1.0)
        runtime, _, tracker, registry = _pipeline(pipeline_app, plan)
        trace = runtime.execute_request(REQUEST, sampled=True)
        tracker.observe_all(trace.messages)  # must not raise
        with_causes = sum(1 for m in trace.messages if m.cause_uids)
        assert registry.get("faults.edges_lost").value == with_causes
        assert registry.get("graphstore.edges_added").value == 0

    def test_duplicates_do_not_double_count_paths(self, pipeline_app):
        plan = FaultPlan(seed=0, message_duplicate_rate=1.0)
        runtime, profiler, tracker, registry = _pipeline(pipeline_app, plan)
        trace = runtime.execute_request(REQUEST, sampled=True)
        tracker.observe_all(trace.messages)
        assert registry.get("faults.messages_duplicated").value == len(trace.messages)
        # Same uid stored twice is idempotent at the path-count level.
        assert sum(profiler.counts(0.0).values()) == 1


class TestProfilerFlushLoss:
    def test_lost_flush_counted_and_path_still_evicted(self, pipeline_app):
        plan = FaultPlan(seed=0, profiler_flush_loss_rate=1.0)
        runtime, profiler, tracker, registry = _pipeline(pipeline_app, plan)
        trace = runtime.execute_request(REQUEST, sampled=True)
        tracker.observe_all(trace.messages)
        assert registry.get("tracker.profiler_records_lost").value == 1
        assert sum(profiler.counts(0.0).values()) == 0  # count never landed
        assert tracker.store.node_count() == 0  # but memory was reclaimed


class TestDanglingEdgeRepair:
    def _store_with_graph(self):
        registry = MetricsRegistry()
        store = GraphStore(registry=registry)
        from repro.lang.message import Message, UidFactory

        uids = UidFactory("host", 1)
        root_uid = uids.next_uid()
        store.add_message(Message(root_uid, "start", "__client__", "A"))
        return store, registry, uids, root_uid

    def test_repair_restores_fast_eviction(self):
        store, registry, uids, root_uid = self._store_with_graph()
        ghost = uids.next_uid()
        store.add_edge(root_uid, ghost)  # effect node never arrives
        assert store.repair_dangling_edges() == 1
        assert registry.get("graphstore.dangling_edges_repaired").value == 1
        assert store.successors(root_uid) == set()
        # Second sweep is a no-op.
        assert store.repair_dangling_edges() == 0

    def test_arrived_node_not_treated_as_ghost(self):
        store, registry, uids, root_uid = self._store_with_graph()
        from repro.lang.message import Message

        late = uids.next_uid()
        store.add_edge(root_uid, late)
        store.add_message(
            Message(late, "mid", "A", "B", cause_uids=frozenset([root_uid]), root_uid=root_uid)
        )
        assert store.repair_dangling_edges() == 0
        assert late in store.successors(root_uid)


class TestStalenessDetector:
    def _profiler(self):
        registry = MetricsRegistry()
        from repro.core.paths import PathSignature

        sig = PathSignature("go", (("__client__", "start", "A"),))
        profiler = CausalPathProfiler({"go": [sig]}, registry=registry)
        return profiler, sig, registry

    def test_engages_after_hysteresis_and_recovers(self):
        profiler, sig, registry = self._profiler()
        policy = StalenessPolicy(
            min_recent_samples=5, recent_horizon_minutes=3.0,
            stale_after_intervals=2, fresh_after_intervals=2,
        )
        detector = ProfileStalenessDetector(profiler, policy)
        for minute in range(5):
            profiler.record(sig, float(minute), count=10)
            assert detector.update(float(minute)) is False
        # Outage: no samples for a stretch.
        assert detector.update(10.0) is False  # first stale interval
        assert detector.update(11.0) is True   # hysteresis satisfied
        assert registry.get("elasticity.fallback_engagements").value == 1
        assert registry.get("elasticity.fallback_active").value == 1.0
        # Recovery: samples flow again.
        profiler.record(sig, 12.0, count=10)
        assert detector.update(12.0) is True   # first fresh interval
        profiler.record(sig, 13.0, count=10)
        assert detector.update(13.0) is False  # released
        assert registry.get("elasticity.fallback_recoveries").value == 1
        assert registry.get("elasticity.fallback_active").value == 0.0

    def test_single_stale_interval_does_not_flap(self):
        profiler, sig, _ = self._profiler()
        policy = StalenessPolicy(min_recent_samples=5, recent_horizon_minutes=3.0)
        detector = ProfileStalenessDetector(profiler, policy)
        profiler.record(sig, 0.0, count=10)
        assert detector.update(0.0) is False
        assert detector.update(10.0) is False  # one bad interval: hold
        profiler.record(sig, 11.0, count=10)
        assert detector.update(11.0) is False

    def test_max_record_age_triggers_without_sparse_window(self):
        profiler, sig, _ = self._profiler()
        policy = StalenessPolicy(
            min_recent_samples=1,
            recent_horizon_minutes=60.0,
            max_record_age_minutes=5.0,
            stale_after_intervals=1,
        )
        detector = ProfileStalenessDetector(profiler, policy)
        profiler.record(sig, 0.0, count=100)
        assert detector.update(1.0) is False
        # Window still holds plenty of counts, but the last record is old.
        assert detector.update(10.0) is True
