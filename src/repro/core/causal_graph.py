"""Wiring between the runtime, the graph store, and the profiler.

:class:`DirectCausalityTracker` is the "monitoring host" side of DCA:
instrumented components report every (sampled) message they emit; the
tracker stores nodes/edges in the graph store; when a response node
completes a causal graph, the tracker reads the signature the store has
been accumulating incrementally (O(1) in the graph size — no BFS on the
hot path; see :mod:`repro.graphstore.store`), increments the matching
path counter in the profiler, and evicts the graph to bound memory.

Completion is edge-triggered by the insertion of a response node (as in
the paper: the BFS "is triggered at the graph store when the edge
corresponding to [the] last message … is stored") but *processed* at
:meth:`DirectCausalityTracker.flush` time, so that a response arriving
before a sibling branch of the same request does not yield a truncated
path.  :meth:`observe_all` flushes automatically.

Failure semantics
-----------------
The tracker is the component that faces the unreliable substrate, so the
recovery mechanisms live here:

* **Retry + dead-letter** — the tracker alone admits store writes
  (:meth:`DirectCausalityTracker._submit`): it rolls the injector's
  store-write channel once per attempt, retries a failed write up to
  ``max_write_retries`` times with exponential (simulated) backoff,
  and only then hands the message to the store or the batched
  pipeline, which never fail a write themselves.  Exhausted messages
  are *dead-lettered*: counted and parked, never allowed to crash the
  pipeline.
* **Path-abandonment timeout** — a root whose causal path has not
  completed within ``path_timeout_minutes`` is abandoned: its partial
  graph is reclaimed from the store and counted, instead of pinning
  store memory (and the pending machinery) forever when a response
  message is lost.
* **Delayed delivery** — messages the fault injector holds back are
  queued and delivered when :meth:`advance_to` passes their due time.
* **Dangling-edge repair** — the maintenance pass asks the store to
  detach raw edges whose effect node never arrived, restoring the O(1)
  eviction path.

Accounting invariants (checked by the chaos harness, :mod:`repro.chaos`):

* A uid is *either* delivered (stored, possibly later completed or
  abandoned) *or* dead-lettered — never both.  When a duplicated
  message's second copy exhausts its write retries while the first copy
  already landed, the failure is counted as
  ``tracker.duplicate_dead_letters_suppressed`` instead of a dead
  letter (the uid *is* in the store).
* An abandoned root stays abandoned: late messages for it (typically
  fault-delayed deliveries due after the path timeout) are discarded
  and counted (``tracker.late_messages_discarded``) instead of
  re-registering the root — which would resurrect a partial graph and
  double-count ``tracker.paths_abandoned`` for the same root.
* Abandoning a root also purges its parked dead letters
  (``store.dead_letter_purged``), so a uid is never simultaneously
  "parked for replay" and "reclaimed by abandonment".
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.paths import PathSignature, signature_from_edges
from repro.faults.injector import FaultInjector
from repro.graphstore.pipeline import BatchedWritePipeline, DeadLetterQueue
from repro.graphstore.store import GraphStore
from repro.lang.message import Message, MessageUid
from repro.profiling.profiler import CausalPathProfiler
from repro.telemetry import MetricsRegistry

_NO_CAUSES = frozenset()


class DirectCausalityTracker:
    """Consumes sampled messages; produces causal-path counts.

    Parameters
    ----------
    profiler:
        The path profiler to increment on each completed causal graph.
    store:
        The causal-graph store (created here if not supplied).
    evict_completed:
        Whether to remove completed causal graphs from the store
        (production behaviour; tests may disable it to inspect graphs).
    registry:
        Telemetry registry; defaults to the store's, so one simulation's
        components share a single snapshot surface.
    fault_injector:
        Optional :class:`~repro.faults.injector.FaultInjector` rolled per
        message for the drop/duplicate/delay/edge-loss channels, per
        write attempt for store-write failures, and per completed path
        for profiler-flush loss.
    path_timeout_minutes:
        When set, roots first seen more than this many minutes ago that
        have not completed are abandoned during :meth:`advance_to`.
    max_write_retries:
        Transient store-write failures retried per message before the
        message is dead-lettered.
    retry_backoff_ms:
        Base of the exponential backoff schedule (doubles per retry);
        simulated time, accumulated in ``tracker.retry_backoff_ms``.
    write_batch_size:
        When > 1, store writes go through a
        :class:`~repro.graphstore.pipeline.BatchedWritePipeline`:
        per-shard buffers flushed when a buffer reaches this size, every
        ``flush_interval_minutes`` of simulated time, and always before
        completions are processed.  1 (the default) writes through
        unbatched, exactly as before.
    flush_interval_minutes:
        Tick-bound of the batched pipeline (ignored when unbatched).
    max_dead_letters:
        Capacity of the dead-letter queue holding messages that
        exhausted their write retries; beyond it the oldest parked
        message is dropped and counted (``store.dead_letter_dropped``).
    """

    def __init__(
        self,
        profiler: CausalPathProfiler,
        store: Optional[GraphStore] = None,
        evict_completed: bool = True,
        registry: Optional[MetricsRegistry] = None,
        fault_injector: Optional[FaultInjector] = None,
        path_timeout_minutes: Optional[float] = None,
        max_write_retries: int = 3,
        retry_backoff_ms: float = 5.0,
        write_batch_size: int = 1,
        flush_interval_minutes: float = 1.0,
        max_dead_letters: int = 256,
    ) -> None:
        self.profiler = profiler
        self.store = store if store is not None else GraphStore(registry=registry)
        self.evict_completed = evict_completed
        self.fault_injector = fault_injector
        self.path_timeout_minutes = (
            float(path_timeout_minutes) if path_timeout_minutes is not None else None
        )
        self.max_write_retries = int(max_write_retries)
        self.retry_backoff_ms = float(retry_backoff_ms)
        self.telemetry = registry if registry is not None else self.store.telemetry
        self._m_observed = self.telemetry.counter("tracker.messages_observed")
        self._m_sampled_away = self.telemetry.counter("tracker.messages_sampled_away")
        self._m_completed = self.telemetry.counter("tracker.paths_completed")
        self._m_discarded = self.telemetry.counter("tracker.completions_discarded")
        self._m_pending = self.telemetry.gauge("tracker.pending_completion_depth")
        self._m_retries = self.telemetry.counter("tracker.store_write_retries")
        self._m_backoff_ms = self.telemetry.counter("tracker.retry_backoff_ms")
        self._m_dead_letters = self.telemetry.counter("tracker.dead_letters")
        self._m_abandoned = self.telemetry.counter("tracker.paths_abandoned")
        self._m_abandoned_nodes = self.telemetry.counter("tracker.abandoned_nodes")
        self._m_dup_suppressed = self.telemetry.counter(
            "tracker.duplicate_dead_letters_suppressed"
        )
        self._m_late_discarded = self.telemetry.counter("tracker.late_messages_discarded")
        self._m_delivered_late = self.telemetry.counter("tracker.delayed_messages_delivered")
        self._m_records_lost = self.telemetry.counter("tracker.profiler_records_lost")
        self._flush_timer = self.telemetry.timer("tracker.flush_seconds")
        self._base_completed = self._m_completed.value
        # Insertion-ordered dict used as a set: completions are processed
        # in arrival order, which is deterministic without sorting.
        self._pending_completion: Dict[MessageUid, None] = {}
        # Root uid -> minute first observed (insertion order is time
        # order because the simulation clock is monotonic); only
        # maintained when a path timeout is configured.
        self._root_first_seen: Dict[MessageUid, float] = {}
        # Roots reclaimed by the abandonment sweep (insertion-ordered,
        # bounded): late messages for them are discarded so an abandoned
        # root can never resurrect or be abandoned twice.
        self._abandoned_roots: Dict[MessageUid, None] = {}
        self._max_abandoned_roots = 4096
        #: Optional :class:`~repro.sim.tap.SimTap`, set by the engine
        #: (chaos runs only).  Emit-only: a tapped tracker makes exactly
        #: the same decisions and RNG draws as an untapped one.
        self.tap = None
        # (due_minute, message) queue of fault-delayed messages.
        self._delayed: List[Tuple[float, Message]] = []
        self._now_minutes = 0.0
        # Per-message fault rolls only when a message channel can fire;
        # the plain fast path additionally requires no injector at all
        # (an attached injector can fail store writes, which need
        # _submit's admission) and no timeout bookkeeping.
        self._message_faults = (
            fault_injector is not None and fault_injector.plan.any_message_faults
        )
        self._plain_path = fault_injector is None and self.path_timeout_minutes is None
        # Dead letters are parked (bounded) rather than silently dropped.
        self.dead_letters = DeadLetterQueue(max_dead_letters, registry=self.telemetry)
        self.write_batch_size = int(write_batch_size)
        if self.write_batch_size > 1:
            self._pipeline: Optional[BatchedWritePipeline] = BatchedWritePipeline(
                self.store,
                batch_size=self.write_batch_size,
                flush_interval_minutes=flush_interval_minutes,
                registry=self.telemetry,
            )
            self._write = self._pipeline.submit
        else:
            self._pipeline = None
            self._write = self.store.add_message
        # Completion is edge-triggered by response-node insertion.
        self.store.subscribe_path_complete(self._mark_complete)

    @property
    def completed_paths(self) -> int:
        """Causal paths this tracker has closed (registry-backed)."""
        return int(self._m_completed.value - self._base_completed)

    @property
    def buffered_writes(self) -> int:
        """Messages sitting in the batched write pipeline (0 if unbatched)."""
        if self._pipeline is None:
            return 0
        return self._pipeline.buffered

    @property
    def pending_completion_depth(self) -> int:
        """Completed roots awaiting :meth:`flush` processing."""
        return len(self._pending_completion)

    def drain_pipeline(self) -> int:
        """Flush buffered writes and the journal; return messages written.

        The replay cutover barrier: called by the event engine's
        :meth:`~repro.sim.events.ReplayIngestor._freeze_all` *before*
        any class delta is frozen, so every write submitted during
        warmup reaches the store — and, on journaling backends, the
        durable log's flush point — ahead of the moment ingestion stops
        feeding the store.  Deliberately leaves the pipeline's flush
        timer untouched (``flush(now_minutes=None)``) so the periodic
        tick schedule stays bit-identical to the tick engine's.
        """
        if self._pipeline is not None:
            return self._pipeline.flush()
        self.store.flush_journal()
        return 0

    def deliver_delayed(self, now_minutes: float) -> None:
        """Deliver fault-delayed messages whose due time has passed.

        The delayed-delivery slice of :meth:`advance_to`'s maintenance
        pass.  A delayed message is delivered exactly once — the fault
        channels are not re-rolled, so a finite delay can never become
        an infinite one.
        """
        now = self._now_minutes = float(now_minutes)
        due = [m for eta, m in self._delayed if eta <= now]
        if not due:
            return
        self._delayed = [(eta, m) for eta, m in self._delayed if eta > now]
        for message in due:
            if self._abandoned_roots and self._discard_if_abandoned(message):
                continue
            if self._submit(message) and self.path_timeout_minutes is not None:
                root = message.root_uid
                if root is None:
                    root = message.uid
                if root not in self._root_first_seen:
                    self._root_first_seen[root] = now
        self._m_delivered_late.inc(len(due))
        self.flush()

    def advance_to(self, time_minutes: float) -> None:
        """Advance the tracker clock and run the maintenance pass.

        Maintenance delivers fault-delayed messages that are now due,
        abandons roots older than the path timeout, and repairs raw
        dangling edges in the store.  All three are no-ops in a
        fault-free, timeout-free configuration.
        """
        self._now_minutes = float(time_minutes)
        if self._pipeline is not None:
            self._pipeline.tick(self._now_minutes)
        if self._plain_path:
            return
        if self._delayed:
            self.deliver_delayed(self._now_minutes)
        if self.path_timeout_minutes is not None:
            self._abandon_expired()
        self.store.repair_dangling_edges()

    def observe_message(self, message: Message) -> None:
        """Record one sampled message (node + causal edges) in the store.

        Call :meth:`flush` once the batch the message belongs to is fully
        recorded; :meth:`observe_all` does both.
        """
        self._observe((message,))

    def observe_all(self, messages: Iterable[Message]) -> List[Tuple[PathSignature, int]]:
        """Record a batch of messages, then process completed paths.

        Returns the ``(signature, count)`` records :meth:`flush` gave the
        profiler, in order.
        """
        self._observe(messages)
        return self.flush()

    def _observe(self, messages: Iterable[Message]) -> None:
        # One loop for both entry points; counter updates are batched per
        # call, and the plain path costs no extra call per message.
        admit = self._write if self._plain_path else self._admit
        observed = 0
        sampled_away = 0
        for message in messages:
            if message.sampled:
                observed += 1
                admit(message)
            else:
                sampled_away += 1
        if observed:
            self._m_observed.inc(observed)
        if sampled_away:
            self._m_sampled_away.inc(sampled_away)

    # -- faulted admission --------------------------------------------------------

    def _admit(self, message: Message) -> None:
        """Roll the message fault channels, then store (with retry)."""
        copies = 1
        if self._message_faults:
            injector = self.fault_injector
            if injector.should_drop_message():
                return
            if message.cause_uids and injector.should_lose_edges():
                # Partial trace: the provenance batch for this message was
                # lost, the message itself still arrives.
                message = message.with_causes(_NO_CAUSES)
            delay = injector.message_delay()
            if delay is not None:
                self._delayed.append((self._now_minutes + delay, message))
                return
            if injector.should_duplicate_message():
                copies = 2
        if self._abandoned_roots and self._discard_if_abandoned(message):
            return
        for _ in range(copies):
            if not self._submit(message):
                return
        if self.path_timeout_minutes is not None:
            root = message.root_uid
            if root is None:
                root = message.uid
            if root not in self._root_first_seen:
                self._root_first_seen[root] = self._now_minutes

    def _discard_if_abandoned(self, message: Message) -> bool:
        """Drop a message whose root the abandonment sweep reclaimed.

        Without this guard a late message (typically a fault-delayed
        delivery due *after* the path timeout) re-registers the root,
        resurrects a partial graph in the store, and the root is
        eventually abandoned a second time — double-counting
        ``tracker.paths_abandoned`` and pinning store memory the sweep
        already reclaimed.
        """
        root = message.root_uid
        if root is None:
            root = message.uid
        if root not in self._abandoned_roots:
            return False
        self._m_late_discarded.inc()
        if self.tap is not None:
            self.tap.emit("late_message_discarded", root=repr(root), uid=repr(message.uid))
        return True

    def _submit(self, message: Message) -> bool:
        """Admit one store write: fault roll, retry, dead-letter, write.

        The only place the store-write fault channel is rolled: one roll
        per attempt, in arrival order, until an attempt succeeds or
        ``max_write_retries`` retries are exhausted — so the seeded
        decision stream, and with it every retry, backoff and
        dead-letter count, is the same at any shard count, batch size
        or backend.  An admitted message goes to ``self._write`` (the
        store, or the batched pipeline), neither of which can fail it.
        Returns whether the message was delivered.  Backoff is simulated
        (counted, not slept): the monitoring host must keep draining its
        queue during a store brownout.

        A uid that is *already delivered* (an earlier duplicate copy is
        stored, or waiting in a pipeline buffer) is never dead-lettered:
        a permanent failure of the redundant copy is counted as
        ``tracker.duplicate_dead_letters_suppressed`` instead — without
        this, the same uid would be accounted as both stored (and so a
        member of a completable path) and dead-lettered.
        """
        injector = self.fault_injector
        max_retries = self.max_write_retries
        failures = 0
        if injector is not None:
            while failures <= max_retries and injector.should_fail_store_write():
                failures += 1
        if failures:
            retries = min(failures, max_retries)
            self._m_retries.inc(retries)
            self._m_backoff_ms.inc(self.retry_backoff_ms * ((1 << retries) - 1))
        if failures <= max_retries:
            self._write(message)
            return True
        uid = message.uid
        if (
            self._pipeline is not None and self._pipeline.is_buffered(uid)
        ) or self.store.contains(uid):
            self._m_dup_suppressed.inc()
            return True
        self._m_dead_letters.inc()
        self.dead_letters.append(message)
        if self.tap is not None:
            root = message.root_uid if message.root_uid is not None else uid
            self.tap.emit("dead_letter", uid=repr(uid), root=repr(root))
        return False

    def _abandon_expired(self) -> None:
        """Abandon roots whose path has been open longer than the timeout."""
        horizon = self._now_minutes - self.path_timeout_minutes
        expired: List[MessageUid] = []
        for root, first_seen in self._root_first_seen.items():
            if first_seen <= horizon:
                expired.append(root)
            else:
                break  # insertion order is time order
        if not expired:
            return
        # Buffered writes must land before the sweep: a root whose
        # response is still sitting in a shard buffer is completed, not
        # abandoned.
        if self._pipeline is not None and self._pipeline.buffered:
            self._pipeline.flush()
        to_sweep: List[MessageUid] = []
        for root in expired:
            del self._root_first_seen[root]
            if root in self._pending_completion:
                # Completed, just not flushed yet — not abandoned.
                continue
            to_sweep.append(root)
        if not to_sweep:
            return
        removed = self.store.abandon_roots(to_sweep)
        self._m_abandoned.inc(len(to_sweep))
        self._m_abandoned_nodes.inc(removed)
        for root in to_sweep:
            self._abandoned_roots[root] = None
            if self.tap is not None:
                self.tap.emit("path_abandoned", root=repr(root))
        while len(self._abandoned_roots) > self._max_abandoned_roots:
            self._abandoned_roots.pop(next(iter(self._abandoned_roots)))
        # A parked dead letter whose root was just reclaimed must not
        # stay parked: replaying it later could only resurrect the
        # abandoned root, and until then the uid would be accounted as
        # both dead-lettered-pending and abandoned.
        if len(self.dead_letters):
            purged = self.dead_letters.purge_roots(to_sweep)
            if self.tap is not None:
                for message in purged:
                    root = message.root_uid if message.root_uid is not None else message.uid
                    self.tap.emit(
                        "dead_letter_purged", uid=repr(message.uid), root=repr(root)
                    )

    # -- completion --------------------------------------------------------------

    def _mark_complete(self, root: MessageUid) -> None:
        self._pending_completion[root] = None
        self._m_pending.set(len(self._pending_completion))

    def flush(self) -> List[Tuple[PathSignature, int]]:
        """Process all pending completions; return the ``(signature, count)``
        records given to the profiler, in order (a completion the fault
        injector loses on its way there gives none)."""
        if self._pipeline is not None and self._pipeline.buffered:
            # Drain buffered writes first so completions they trigger are
            # processed in this flush, not delayed to the next.
            self._pipeline.flush()
        records: List[Tuple[PathSignature, int]] = []
        with self._flush_timer:
            for root in self._pending_completion:
                self._finalize(root, records)
            self._pending_completion.clear()
            self._m_pending.set(0)
        return records

    def _finalize(self, root: MessageUid, records: List[Tuple[PathSignature, int]]) -> None:
        if self._root_first_seen:
            self._root_first_seen.pop(root, None)
        completed = self.store.completed_signature(root)
        if completed is None:
            # Root sampled away (e.g. tracing began mid-path); ignore.
            self._m_discarded.inc()
            return
        request_type, edges = completed
        if self.tap is not None:
            if root in self._abandoned_roots:
                # Unreachable by design (late messages for abandoned
                # roots are discarded before the store sees them); the
                # emission exists so the invariant checker fails loudly
                # if a future code path breaks that guarantee.
                self.tap.emit("root_resurrected", root=repr(root))
            self.tap.emit(
                "path_completed",
                root=repr(root),
                members=tuple(repr(uid) for uid in self.store.graph_members(root)),
            )
        injector = self.fault_injector
        if injector is not None and injector.should_lose_profiler_flush():
            # The path closed but its count never reached the profiler —
            # the causal profile silently under-counts (what the
            # staleness detector must survive).
            self._m_records_lost.inc()
        else:
            signature = signature_from_edges(request_type, edges)
            self.profiler.record(signature, self._now_minutes)
            records.append((signature, 1))
        self._m_completed.inc()
        if self.evict_completed:
            self.store.evict_graph(root)
