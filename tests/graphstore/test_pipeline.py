"""Unit tests: batched write pipeline and the bounded dead-letter queue."""

import pytest

from repro.core.causal_graph import DirectCausalityTracker
from repro.errors import GraphStoreError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.graphstore.pipeline import BatchedWritePipeline, DeadLetterQueue
from repro.graphstore.sharded import ShardedGraphStore
from repro.graphstore.store import GraphStore
from repro.lang.ir import CLIENT, EXTERNAL
from repro.lang.message import Message, MessageUid
from repro.profiling.profiler import CausalPathProfiler
from repro.telemetry import MetricsRegistry


def _roots(n, process_id=21):
    return [
        Message(MessageUid("h", process_id, seq), "req", EXTERNAL, "A")
        for seq in range(1, n + 1)
    ]


def _chain(root, length, start_seq):
    msgs = [root]
    prev = root
    for i in range(length):
        dest = CLIENT if i == length - 1 else f"C{i}"
        msg = Message(
            MessageUid("h", root.uid.process_id, start_seq + i),
            f"m{i}", f"C{i - 1}" if i else "A", dest,
            cause_uids=frozenset({prev.uid}), root_uid=root.uid,
        )
        msgs.append(msg)
        prev = msg
    return msgs


class TestDeadLetterQueue:
    def test_caps_at_max_size_dropping_oldest(self):
        registry = MetricsRegistry()
        queue = DeadLetterQueue(max_size=3, registry=registry)
        messages = _roots(5)
        for msg in messages:
            queue.append(msg)
        assert len(queue) == 3
        assert [m.uid for m in queue] == [m.uid for m in messages[2:]]
        assert queue.dropped == 2
        assert registry.counter("store.dead_letter_dropped").value == 2
        assert registry.gauge("store.dead_letter_depth").value == 3

    def test_zero_capacity_counts_and_drops_everything(self):
        queue = DeadLetterQueue(max_size=0, registry=MetricsRegistry())
        for msg in _roots(4):
            queue.append(msg)
        assert len(queue) == 0
        assert queue.dropped == 4


class TestBatchedWritePipeline:
    def test_rejects_bad_parameters(self):
        store = GraphStore(registry=MetricsRegistry())
        with pytest.raises(GraphStoreError):
            BatchedWritePipeline(store, batch_size=0)

    def test_size_bound_flush(self):
        registry = MetricsRegistry()
        store = GraphStore(registry=registry)
        pipeline = BatchedWritePipeline(store, batch_size=4, registry=registry)
        messages = _roots(7)
        for msg in messages[:3]:
            pipeline.submit(msg)
        assert pipeline.buffered == 3
        assert store.node_count() == 0
        pipeline.submit(messages[3])  # 4th write fills the batch
        assert pipeline.buffered == 0
        assert store.node_count() == 4
        assert registry.counter("store.write_batches").value == 1
        assert registry.counter("store.batched_writes").value == 4

    def test_tick_bound_flush(self):
        registry = MetricsRegistry()
        store = GraphStore(registry=registry)
        pipeline = BatchedWritePipeline(store, batch_size=100, registry=registry)
        for msg in _roots(5):
            pipeline.submit(msg)
        assert pipeline.tick(0.5) == 0  # interval not yet elapsed
        assert store.node_count() == 0
        assert pipeline.tick(1.0) == 5
        assert store.node_count() == 5
        assert pipeline.buffered == 0

    def test_routes_by_root_to_shard_buffers(self):
        registry = MetricsRegistry()
        store = ShardedGraphStore(num_shards=4, registry=registry)
        pipeline = BatchedWritePipeline(store, batch_size=1000, registry=registry)
        root = _roots(1, process_id=22)[0]
        chain = _chain(root, 5, start_seq=100)
        for msg in chain:
            pipeline.submit(msg)
        pipeline.flush()
        home = store.shards[store.shard_index_of(root.uid)]
        assert home.node_count() == len(chain)
        assert store.node_count() == len(chain)
        assert store.completed_signature(root.uid) is not None

    def test_preroll_matches_unbatched_retry_bookkeeping(self):
        """The tracker's pre-roll must consume the injector stream and
        produce the retry/backoff/dead-letter ledger of the store-side
        roll it replaced, batched or not.  The pinned values are what
        that roll (``GraphStore.add_message`` raising into the tracker's
        retry loop) produced for this seed before it was removed."""
        for batch_size in (1, 16):
            registry = MetricsRegistry()
            injector = FaultInjector(
                FaultPlan(seed=3, store_write_failure_rate=0.4), registry=registry
            )
            store = GraphStore(registry=registry)
            profiler = CausalPathProfiler({}, registry=registry)
            tracker = DirectCausalityTracker(
                profiler,
                store=store,
                registry=registry,
                fault_injector=injector,
                write_batch_size=batch_size,
            )
            tracker.observe_all(_roots(60))
            ledger = {
                key: registry.counter(key).value
                for key in (
                    "faults.store_write_failures",
                    "tracker.store_write_retries",
                    "tracker.retry_backoff_ms",
                    "tracker.dead_letters",
                )
            }
            assert ledger == {
                "faults.store_write_failures": 37,
                "tracker.store_write_retries": 34,
                "tracker.retry_backoff_ms": 300.0,
                "tracker.dead_letters": 3,
            }, batch_size
            assert [m.uid.seq for m in tracker.dead_letters] == [14, 26, 33]
            assert store.node_count() == 57

    def test_flushed_buffers_leave_no_uids_behind(self):
        """A flushed message is no longer "buffered": once its graph is
        evicted, a late duplicate that exhausts its retries is lost, not
        suppressed — the answer the unbatched path gives."""
        pipeline = BatchedWritePipeline(
            GraphStore(registry=MetricsRegistry()), batch_size=4
        )
        messages = _roots(6)
        for msg in messages:
            pipeline.submit(msg)
        assert pipeline.is_buffered(messages[5].uid)
        assert not pipeline.is_buffered(messages[0].uid)  # size-flushed
        pipeline.flush()
        assert pipeline.buffered == 0
        assert not any(pipeline.is_buffered(m.uid) for m in messages)


class TestTrackerDeadLetterCap:
    def test_exhausted_writes_park_up_to_cap(self):
        registry = MetricsRegistry()
        injector = FaultInjector(
            FaultPlan(store_write_failure_rate=1.0), registry=registry
        )
        store = GraphStore(registry=registry)
        profiler = CausalPathProfiler({}, registry=registry)
        tracker = DirectCausalityTracker(
            profiler,
            store=store,
            registry=registry,
            fault_injector=injector,
            max_dead_letters=2,
        )
        tracker.observe_all(_roots(5))
        assert registry.counter("tracker.dead_letters").value == 5
        assert len(tracker.dead_letters) == 2  # capped
        assert tracker.dead_letters.dropped == 3
        assert registry.counter("store.dead_letter_dropped").value == 3

    def test_batched_tracker_parks_in_same_queue(self):
        registry = MetricsRegistry()
        injector = FaultInjector(
            FaultPlan(store_write_failure_rate=1.0), registry=registry
        )
        store = ShardedGraphStore(num_shards=2, registry=registry)
        profiler = CausalPathProfiler({}, registry=registry)
        tracker = DirectCausalityTracker(
            profiler,
            store=store,
            registry=registry,
            fault_injector=injector,
            write_batch_size=8,
            max_dead_letters=3,
        )
        tracker.observe_all(_roots(5))
        assert len(tracker.dead_letters) == 3
        assert tracker.dead_letters.dropped == 2
        assert store.node_count() == 0
