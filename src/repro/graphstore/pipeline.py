"""Batched write pipeline: per-shard buffers between tracker and store.

Dapper-style tracers keep instrumentation overhead low by *buffering*
span writes and flushing them in batches; the same shape applies to the
DCA monitoring host.  :class:`BatchedWritePipeline` sits between
:class:`~repro.core.causal_graph.DirectCausalityTracker` and the graph
store: ``observe``-side calls append messages to a per-shard buffer, and
buffers are flushed

* **size-bounded** — a shard's buffer reaching ``batch_size`` flushes
  that shard immediately, and
* **tick-bounded** — :meth:`tick` (called from the tracker's
  per-interval maintenance pass) flushes everything at least every
  :data:`FLUSH_INTERVAL_MINUTES` of simulated time, and
* **on demand** — :meth:`flush` drains every buffer (the tracker drains
  before processing path completions, so batching never delays a
  completion past the flush that observes it).

Batching amortises the per-write fixed costs — flush timing and batch
telemetry — across the batch, while preserving per-root ordering: all
messages of one root route to one shard and each shard buffer is FIFO,
so per-root arrival order is preserved; shards flush in index order, so
the interleaving is deterministic.

The pipeline only buffers and writes.  Write admission — the
store-write fault roll, retries, and parking exhausted messages in the
bounded :class:`DeadLetterQueue` — happens in the tracker *before*
:meth:`BatchedWritePipeline.submit`, so a submitted message is always
written.

The pipeline writes through the store's shard protocol
(:mod:`repro.graphstore.sharded`): one buffer per ``store.shards``
entry, routed by ``store.shard_index_of``, and ``store.flush_journal()``
once per drain.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Iterator, List, Optional

from repro.errors import GraphStoreError
from repro.lang.message import Message
from repro.telemetry import MetricsRegistry, get_registry

#: Bucket bounds for the flushed-batch-size histogram (message counts).
BATCH_SIZE_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024)

#: Simulated minutes a buffered write may wait for a tick-bound flush.
FLUSH_INTERVAL_MINUTES = 1.0


class DeadLetterQueue:
    """Bounded queue of messages that exhausted their store-write retries.

    The queue exists for inspection and (future) replay; unbounded it
    would grow forever under a sustained fault plan, so it keeps at most
    ``max_size`` messages — when full, the *oldest* entry is dropped and
    ``store.dead_letter_dropped`` counts the loss.  ``max_size <= 0``
    disables parking entirely (every dead letter is dropped and
    counted), preserving the old counted-and-dropped behaviour.
    """

    def __init__(self, max_size: int = 256, registry: Optional[MetricsRegistry] = None) -> None:
        self.max_size = int(max_size)
        self.telemetry = registry if registry is not None else get_registry()
        self._items: Deque[Message] = deque()
        self._m_dropped = self.telemetry.counter("store.dead_letter_dropped")
        self._m_purged = self.telemetry.counter("store.dead_letter_purged")
        self._m_depth = self.telemetry.gauge("store.dead_letter_depth")

    @property
    def depth(self) -> int:
        """Messages currently parked (the ``dead_letter_depth`` gauge value)."""
        return len(self._items)

    def append(self, message: Message) -> None:
        items = self._items
        if self.max_size <= 0:
            self._m_dropped.inc()
            return
        if len(items) >= self.max_size:
            items.popleft()
            self._m_dropped.inc()
        items.append(message)
        self._m_depth.set(len(items))

    def purge_roots(self, roots) -> List[Message]:
        """Remove parked messages belonging to ``roots``; return them.

        Called by the tracker's abandonment sweep: a dead letter whose
        root has been reclaimed can never be usefully replayed (doing so
        would resurrect the abandoned root), so keeping it parked would
        account the same uid as both dead-lettered-pending and
        abandoned.  Purged messages are counted separately
        (``store.dead_letter_purged``) so the dead-letter ledger stays
        exact: ``tracker.dead_letters == depth + dropped + purged``.
        """
        root_set = set(roots)
        if not root_set or not self._items:
            return []
        purged: List[Message] = []
        kept: Deque[Message] = deque()
        for message in self._items:
            root = message.root_uid if message.root_uid is not None else message.uid
            if root in root_set:
                purged.append(message)
            else:
                kept.append(message)
        if purged:
            self._items = kept
            self._m_purged.inc(len(purged))
            self._m_depth.set(len(kept))
        return purged

    @property
    def dropped(self) -> int:
        """Messages dropped because the queue was full (registry-backed)."""
        return int(self._m_dropped.value)

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Message]:
        return iter(self._items)


class BatchedWritePipeline:
    """Size- and tick-bounded buffered writer in front of the graph store."""

    def __init__(
        self,
        store,
        batch_size: int = 32,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if batch_size < 1:
            raise GraphStoreError(f"batch_size must be >= 1, got {batch_size}")
        self.store = store
        self.batch_size = int(batch_size)
        self._targets = store.shards
        # A fleet of one needs no routing call per message.
        self._route = store.shard_index_of if len(self._targets) > 1 else None
        self._buffers: List[List[Message]] = [[] for _ in self._targets]
        self._buffered = 0
        self._last_flush_minute = 0.0
        self.telemetry = registry if registry is not None else get_registry()
        self._m_batches = self.telemetry.counter("store.write_batches")
        self._m_batched = self.telemetry.counter("store.batched_writes")
        self._m_batch_size = self.telemetry.histogram(
            "store.write_batch_size", buckets=BATCH_SIZE_BUCKETS
        )
        self._flush_timer = self.telemetry.timer("store.flush_seconds")

    # -- write side --------------------------------------------------------------

    @property
    def buffered(self) -> int:
        """Messages currently waiting in shard buffers."""
        return self._buffered

    def is_buffered(self, uid) -> bool:
        """Whether a message with ``uid`` is waiting in a shard buffer.

        Asked by the tracker's duplicate-suppression check, which must
        see writes accepted but not yet flushed into the store.  A scan
        of at most ``num_shards * batch_size`` messages, paid only when
        a write exhausts its retries.
        """
        return any(m.uid == uid for buffer in self._buffers for m in buffer)

    def submit(self, message: Message) -> None:
        """Buffer one message for its shard; flush the shard when full."""
        route = self._route
        index = 0 if route is None else route(
            message.uid if message.root_uid is None else message.root_uid
        )
        buffer = self._buffers[index]
        buffer.append(message)
        self._buffered += 1
        if len(buffer) >= self.batch_size:
            self._flush_shard(index)

    # -- flush triggers ----------------------------------------------------------

    def tick(self, now_minutes: float) -> int:
        """Tick-bounded trigger: flush everything when the interval elapsed."""
        if now_minutes - self._last_flush_minute >= FLUSH_INTERVAL_MINUTES:
            return self.flush(now_minutes)
        return 0

    def flush(self, now_minutes: Optional[float] = None) -> int:
        """Drain every shard buffer (shard-index order); returns messages written.

        A drain is also the journal durability point for journaling
        store backends: size-triggered batch handoffs between drains
        stay buffered (plus the backend's own byte-bounded auto-flush),
        so the write syscall is paid per flush interval, not per batch.
        """
        if now_minutes is not None:
            self._last_flush_minute = float(now_minutes)
        written = 0
        if self._buffered:
            for index, buffer in enumerate(self._buffers):
                if buffer:
                    written += self._flush_shard(index)
        self.store.flush_journal()
        return written

    def _flush_shard(self, index: int) -> int:
        buffer = self._buffers[index]
        if not buffer:
            return 0
        self._buffers[index] = []
        self._buffered -= len(buffer)
        with self._flush_timer:
            written = self._targets[index].add_messages(buffer)
        self._m_batches.inc()
        self._m_batched.inc(written)
        self._m_batch_size.observe(written)
        return written
