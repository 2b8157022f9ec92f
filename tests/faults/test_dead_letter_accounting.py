"""Dead-letter/abandonment accounting: every lost uid counted exactly once.

Three rules, each with a unit test and all three pinned together by a
seeded sharded+batched integration run:

* **Duplicate suppression** — a retry-exhausted write whose uid an
  earlier duplicate copy already delivered (buffered or flushed) is
  redundant, not lost: it must not be dead-lettered a second time.
* **Purge on abandonment** — a parked dead letter whose root is
  abandoned is purged (replaying it would resurrect the root) and moves
  from the queue's depth to ``store.dead_letter_purged``, keeping the
  ledger exact: ``tracker.dead_letters == depth + dropped + purged``.
* **Late-message discard** — a message arriving for an already-abandoned
  root is discarded (``tracker.late_messages_discarded``), never
  re-admitted and never double-counted as abandoned.
"""

import pytest

from repro.core.causal_graph import DirectCausalityTracker
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.graphstore.pipeline import DeadLetterQueue
from repro.graphstore.store import GraphStore
from repro.lang.ir import CLIENT, EXTERNAL
from repro.lang.message import Message, MessageUid
from repro.profiling.profiler import CausalPathProfiler
from repro.sim.tap import SimTap
from repro.telemetry import MetricsRegistry

#: Unbatched, and through the batched pipeline.
BATCH_SIZES = (1, 8)


def _msg(seq, root_seq=None):
    root = MessageUid("h", 9, root_seq) if root_seq is not None else None
    return Message(
        MessageUid("h", 9, seq),
        "m",
        EXTERNAL if root is None else "A",
        "B",
        root_uid=root,
    )


class _ScriptedInjector(FaultInjector):
    """Fails store writes per a scripted sequence, then succeeds.

    Every other channel is the real injector's under an empty plan: off.
    """

    def __init__(self):
        super().__init__(FaultPlan(), registry=MetricsRegistry())
        self.script = []

    def fail_next(self, count):
        self.script.extend([True] * count)

    def should_fail_store_write(self):
        return self.script.pop(0) if self.script else False


class TestDeadLetterQueuePurge:
    def test_purge_removes_only_matching_roots(self):
        registry = MetricsRegistry()
        queue = DeadLetterQueue(registry=registry)
        kept = _msg(2, root_seq=1)
        doomed_a = _msg(4, root_seq=3)
        doomed_b = _msg(5, root_seq=3)
        for message in (kept, doomed_a, doomed_b):
            queue.append(message)
        purged = queue.purge_roots({MessageUid("h", 9, 3)})
        assert purged == [doomed_a, doomed_b]
        assert list(queue) == [kept]
        assert registry.get("store.dead_letter_purged").value == 2
        assert registry.get("store.dead_letter_depth").value == 1

    def test_rootless_message_matches_on_own_uid(self):
        """A parked external request is its own root."""
        registry = MetricsRegistry()
        queue = DeadLetterQueue(registry=registry)
        queue.append(_msg(1))
        assert len(queue.purge_roots({MessageUid("h", 9, 1)})) == 1
        assert len(queue) == 0

    def test_empty_roots_is_a_noop(self):
        registry = MetricsRegistry()
        queue = DeadLetterQueue(registry=registry)
        queue.append(_msg(2, root_seq=1))
        assert queue.purge_roots(set()) == []
        assert len(queue) == 1
        assert registry.get("store.dead_letter_purged").value == 0


class TestPipelineDuplicateSuppression:
    """The tracker's suppression rule, unbatched and through the pipeline."""

    def _tracker(self, registry, injector, batch_size):
        return DirectCausalityTracker(
            CausalPathProfiler({}, registry=registry),
            store=GraphStore(registry=registry),
            registry=registry,
            fault_injector=injector,
            max_write_retries=3,
            write_batch_size=batch_size,
        )

    def test_buffered_uid_is_suppressed_not_dead_lettered(self):
        registry = MetricsRegistry()
        injector = _ScriptedInjector()
        tracker = self._tracker(registry, injector, batch_size=8)
        message = _msg(1)
        tracker.observe_message(message)
        assert tracker.buffered_writes == 1
        assert tracker.store.node_count() == 0
        # A duplicate copy of the same uid exhausts its retries...
        injector.fail_next(4)
        tracker.observe_message(message)
        # ...and is suppressed: redundant, not lost.
        assert registry.get("tracker.dead_letters").value == 0
        assert (
            registry.get("tracker.duplicate_dead_letters_suppressed").value == 1
        )
        assert len(tracker.dead_letters) == 0

    def test_flushed_uid_is_suppressed_via_store_lookup(self):
        for batch_size in BATCH_SIZES:
            registry = MetricsRegistry()
            injector = _ScriptedInjector()
            tracker = self._tracker(registry, injector, batch_size)
            message = _msg(1)
            tracker.observe_message(message)
            tracker.drain_pipeline()
            assert tracker.buffered_writes == 0
            assert tracker.store.contains(message.uid)
            injector.fail_next(4)
            tracker.observe_message(message)
            assert registry.get("tracker.dead_letters").value == 0
            assert (
                registry.get("tracker.duplicate_dead_letters_suppressed").value == 1
            )

    @pytest.mark.parametrize("batch_size", BATCH_SIZES)
    def test_evicted_uid_is_dead_lettered_not_suppressed(self, batch_size):
        """Once a uid's graph is evicted the uid is gone, batched or not:
        a late copy that exhausts its retries is a real loss.  (The
        pipeline used to remember every uid it had ever buffered and
        answered "delivered" here.)"""
        registry = MetricsRegistry()
        injector = _ScriptedInjector()
        tracker = self._tracker(registry, injector, batch_size)
        root = _msg(1)
        response = Message(
            MessageUid("h", 9, 2), "r", "B", CLIENT,
            cause_uids=frozenset({root.uid}), root_uid=root.uid,
        )
        tracker.observe_all([root, response])
        assert tracker.completed_paths == 1
        assert tracker.store.node_count() == 0  # evicted
        injector.fail_next(4)
        tracker.observe_message(response)
        assert registry.get("tracker.duplicate_dead_letters_suppressed").value == 0
        assert registry.get("tracker.dead_letters").value == 1

    def test_fresh_uid_still_dead_letters(self):
        for batch_size in BATCH_SIZES:
            registry = MetricsRegistry()
            injector = _ScriptedInjector()
            tracker = self._tracker(registry, injector, batch_size)
            injector.fail_next(4)
            tracker.observe_message(_msg(1))
            assert registry.get("tracker.dead_letters").value == 1
            assert registry.get("tracker.store_write_retries").value == 3
            assert registry.get("tracker.duplicate_dead_letters_suppressed").value == 0
            assert len(tracker.dead_letters) == 1
            assert tracker.buffered_writes == 0
            assert tracker.store.node_count() == 0

    def test_dead_letter_emits_tap_event(self):
        for batch_size in BATCH_SIZES:
            registry = MetricsRegistry()
            injector = _ScriptedInjector()
            tracker = self._tracker(registry, injector, batch_size)
            tap = SimTap()
            tracker.tap = tap
            injector.fail_next(4)
            message = _msg(2, root_seq=1)
            tracker.observe_message(message)
            assert tap.counts == {"dead_letter": 1}
            event = tap.events[0]
            assert event.data["uid"] == repr(message.uid)
            assert event.data["root"] == repr(message.root_uid)


class TestShardedBatchedAccountingPinned:
    """Seeded integration run under ``--shards 4 --batch-size 32``.

    The exact counter values are pinned: any change to fault-roll order,
    suppression, purging, or late-discard behaviour shows up here as a
    diff, not as silent double-accounting.  Both engines must agree.
    """

    PINNED = {
        "tracker.dead_letters": 3,
        "store.dead_letter_depth": 1,
        "store.dead_letter_dropped": 0,
        "store.dead_letter_purged": 2,
        "tracker.duplicate_dead_letters_suppressed": 1,
        "tracker.paths_abandoned": 54,
        "tracker.late_messages_discarded": 25,
        "tracker.store_write_retries": 201,
    }

    def _run(self, engine):
        from repro.apps.catalog import load_scenario
        from repro.core.elasticity import DCAManagerConfig, StalenessPolicy
        from repro.evalx.experiment import (
            DCA_RATES,
            ExperimentConfig,
            build_simulator,
        )

        plan = FaultPlan(
            seed=7,
            store_write_failure_rate=0.30,
            message_drop_rate=0.10,
            message_duplicate_rate=0.15,
            message_delay_rate=0.20,
            message_delay_minutes=8.0,  # > path timeout: forces purges
            start_minute=4.0,
            end_minute=28.0,
        )
        registry = MetricsRegistry()
        config = ExperimentConfig(
            duration_minutes=40,
            seed=7,
            num_shards=4,
            write_batch_size=32,
            engine=engine,
        )
        simulator = build_simulator(
            load_scenario("hedwig"),
            "DCA-10%",
            config,
            registry=registry,
            fault_plan=plan,
            path_timeout_minutes=5.0,
            manager_config=DCAManagerConfig(
                sampling_rate=DCA_RATES["DCA-10%"], staleness=StalenessPolicy()
            ),
        )
        simulator.run()
        return {
            key: int(registry.get(key).value) if registry.get(key) else 0
            for key in self.PINNED
        }

    @pytest.mark.parametrize("engine", ("tick", "event"))
    def test_pinned_counters(self, engine):
        values = self._run(engine)
        assert values == self.PINNED

    def test_ledger_identity(self):
        """tracker.dead_letters == depth + dropped + purged, exactly."""
        values = self._run("tick")
        assert values["tracker.dead_letters"] == (
            values["store.dead_letter_depth"]
            + values["store.dead_letter_dropped"]
            + values["store.dead_letter_purged"]
        )
