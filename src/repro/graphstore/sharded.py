"""Root-sharded causal-graph store: N independent stores behind one facade.

The paper offloads causal edges to Apache Titan precisely because a
*distributed* store lets provenance capture scale with traffic.  The
single :class:`~repro.graphstore.store.GraphStore` reproduces the hash
*index*; this module reproduces the *scale-out*: a
:class:`ShardedGraphStore` partitions whole causal graphs across
``num_shards`` independent ``GraphStore`` instances, routed by the
**root uid** of each message through :func:`shard_of` — the crc32 the
uid carries, modulo the shard count.

The shard protocol
------------------
Every store the tracker can be given answers ``shards``,
``shard_index_of(root)``, ``flush_journal()`` and ``close()``: this
facade and a plain :class:`~repro.graphstore.store.GraphStore` (a fleet
of one — ``shards`` is itself, every root maps to shard 0).  The
batched write pipeline, the replay
journal writer and the simulator's shutdown call it without asking what
kind of store they hold.

Routing rule
------------
Every message carries the uid of the external request at the head of its
causal path (``root_uid``; the root message *is* its own root), so the
entire causal graph of one request lands in exactly one shard.  That
makes the hot per-root operations — signature accumulation, completion,
eviction, abandonment — shard-local, while the shard count bounds
nothing semantically: each shard runs the full incremental-signature
machinery unchanged.

The one semantic difference from a single store concerns *cross-root*
provenance (a message of request A listing a cause from request B, i.e.
taint through shared component state).  A single store propagates
reachability across such bridges, so the bridged node joins both roots'
signatures; under root-sharding the two graphs may live in different
shards, and the foreign cause is treated exactly like a sampling gap (an
edge whose node never arrives).  Signatures are therefore *root-local*
under sharding.  For bridge-free streams — which is what the runtime's
per-request tracing emits for every path the profiler counts — sharded
and single-store results are identical message for message; the seeded
equivalence suite in ``tests/graphstore/test_sharded_equivalence.py``
pins this.

Reads by bare uid (``get_node``, edge iteration) fan out
across shards; per-root operations route.  Whole-store maintenance —
:meth:`repair_dangling_edges` and the abandonment sweep
(:meth:`abandon_roots`) — visits the shards in index order.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import GraphStoreError
from repro.graphstore.backend import GraphStoreBackend
from repro.graphstore.store import (
    GRAPH_SIZE_BUCKETS,
    EdgeTriple,
    GraphNode,
    GraphStore,
)
from repro.lang.message import Message, MessageUid
from repro.telemetry import MetricsRegistry, get_registry


def shard_of(root: MessageUid, num_shards: int) -> int:
    """The shard owning ``root``'s causal graph among ``num_shards``.

    The uid's stable crc32 (its fourth item — not :func:`hash`, which
    Python salts per process) modulo the shard count, so every process
    routes a root to the same shard.
    """
    return root[3] % num_shards


class ShardedGraphStore:
    """``num_shards`` independent :class:`GraphStore` shards, routed by root uid.

    Drop-in for :class:`GraphStore` everywhere the tracker and the query
    API are concerned: the full read/write/maintenance surface is
    exposed, per-root operations are O(1)-routed to the owning shard,
    and completion callbacks registered via
    :meth:`subscribe_path_complete` fire exactly as they would on a
    single store.

    Parameters
    ----------
    num_shards:
        Number of independent stores (>= 1).
    registry:
        As for :class:`GraphStore`.  All shards report into the same
        registry, so the ``graphstore.*`` counters aggregate across the
        fleet.
    backends:
        Optional per-shard :class:`~repro.graphstore.backend.GraphStoreBackend`
        list (one per shard, e.g. from
        :func:`repro.graphstore.backend.shard_backends`); each shard
        journals into — and recovers from — its own backend, so the
        rotated ``shard-NN/`` log directories stay independent.
    """

    def __init__(
        self,
        num_shards: int = 4,
        registry: Optional[MetricsRegistry] = None,
        backends: Optional[Sequence[GraphStoreBackend]] = None,
    ) -> None:
        if num_shards < 1:
            raise GraphStoreError(f"num_shards must be >= 1, got {num_shards}")
        if backends is not None and len(backends) != num_shards:
            raise GraphStoreError(
                f"got {len(backends)} backend(s) for {num_shards} shard(s)"
            )
        self.num_shards = int(num_shards)
        self.telemetry = registry if registry is not None else get_registry()
        self._path_complete_subscribers: List[Callable[[MessageUid], None]] = []
        self.shards: Tuple[GraphStore, ...] = tuple(
            GraphStore(
                registry=self.telemetry,
                backend=backends[index] if backends is not None else None,
            )
            for index in range(self.num_shards)
        )
        for shard in self.shards:
            shard.subscribe_path_complete(self._notify_path_complete)
        self._m_lookups = self.telemetry.counter("graphstore.index_lookups")
        self._m_cross_shard_reads = self.telemetry.counter("graphstore.cross_shard_reads")
        # Handles the BFS query path expects on any store-like object.
        self._m_bfs_extractions = self.telemetry.counter("graphstore.bfs_extractions")
        self._m_bfs_hops = self.telemetry.counter("graphstore.bfs_hops")
        self._m_extract_size = self.telemetry.histogram(
            "graphstore.extracted_graph_size_nodes", buckets=GRAPH_SIZE_BUCKETS
        )

    # -- routing -----------------------------------------------------------------

    def shard_index_of(self, root: MessageUid) -> int:
        """Shard that owns the causal graph rooted at ``root``."""
        return shard_of(root, self.num_shards)

    def _find_shard_holding(self, uid: MessageUid) -> Optional[GraphStore]:
        """Fan out for the shard whose node index holds ``uid``."""
        for shard in self.shards:
            if shard.contains(uid):
                return shard
        return None

    # -- subscriptions -----------------------------------------------------------

    def subscribe_path_complete(self, callback: Callable[[MessageUid], None]) -> None:
        """Register ``callback(root_uid)`` for response-node insertions."""
        self._path_complete_subscribers.append(callback)

    def _notify_path_complete(self, root: MessageUid) -> None:
        for callback in self._path_complete_subscribers:
            callback(root)

    # -- writes ---------------------------------------------------------------

    def add_message(self, message: Message) -> GraphNode:
        """Route ``message`` to its root's shard and insert it there."""
        root = message.root_uid
        shard = self.shards[shard_of(message.uid if root is None else root, self.num_shards)]
        return shard.add_message(message)

    def add_messages(self, messages: Sequence[Message]) -> int:
        """Bulk insert; the batched write pipeline groups per shard first.

        Provided for symmetry with :meth:`GraphStore.add_messages`; each
        message is still routed individually (callers with pre-grouped
        batches should write straight to ``shards[i].add_messages``).
        """
        add = self.add_message
        count = 0
        for message in messages:
            add(message)
            count += 1
        return count

    def add_edge(self, cause: MessageUid, effect: MessageUid) -> None:
        """Record a raw causal edge in the shard holding either endpoint.

        Both endpoints of a raw edge must belong to the same causal
        graph (the routing invariant); when neither node is present yet,
        the edge is routed by the effect uid's own hash, matching where
        a root-less effect node would land.
        """
        shard = self._find_shard_holding(effect)
        if shard is None:
            shard = self._find_shard_holding(cause)
        if shard is None:
            shard = self.shards[shard_of(effect, self.num_shards)]
        shard.add_edge(cause, effect)

    # -- reads ------------------------------------------------------------------

    def contains(self, uid: MessageUid) -> bool:
        return self._find_shard_holding(uid) is not None

    def get_node(self, uid: MessageUid) -> Optional[GraphNode]:
        """Cross-shard node lookup (one index lookup, N probes worst case)."""
        self._m_lookups.inc()
        shards = self.shards
        node = shards[0]._node_at(uid)
        if node is not None or len(shards) == 1:
            return node
        self._m_cross_shard_reads.inc()
        for shard in shards[1:]:
            node = shard._node_at(uid)
            if node is not None:
                return node
        return None

    def successors(self, uid: MessageUid) -> Set[MessageUid]:
        out: Set[MessageUid] = set()
        for shard in self.shards:
            out.update(shard.iter_successors(uid))
        return out

    def predecessors(self, uid: MessageUid) -> Set[MessageUid]:
        out: Set[MessageUid] = set()
        for shard in self.shards:
            out.update(shard.iter_predecessors(uid))
        return out

    def iter_successors(self, uid: MessageUid) -> Iterator[MessageUid]:
        for shard in self.shards:
            yield from shard.iter_successors(uid)

    def iter_predecessors(self, uid: MessageUid) -> Iterator[MessageUid]:
        for shard in self.shards:
            yield from shard.iter_predecessors(uid)

    def node_count(self) -> int:
        return sum(shard.node_count() for shard in self.shards)

    def all_uids(self) -> Iterable[MessageUid]:
        for shard in self.shards:
            yield from shard.all_uids()

    # -- incremental signatures ---------------------------------------------------

    def completed_signature(
        self, root: MessageUid
    ) -> Optional[Tuple[str, Tuple[EdgeTriple, ...]]]:
        """Shard-local O(1) signature read (see :meth:`GraphStore.completed_signature`)."""
        return self.shards[shard_of(root, self.num_shards)].completed_signature(root)

    def graph_members(self, root: MessageUid) -> Tuple[MessageUid, ...]:
        return self.shards[shard_of(root, self.num_shards)].graph_members(root)

    # -- maintenance ---------------------------------------------------------------

    def evict_graph(self, root: MessageUid) -> int:
        return self.shards[shard_of(root, self.num_shards)].evict_graph(root)

    def abandon_roots(self, roots: Iterable[MessageUid]) -> int:
        """Abandon many roots in one sweep, grouped per shard.

        Each shard's O(stored nodes) scan runs once per sweep instead of
        once per root (:meth:`GraphStore.abandon_roots`), and only on
        shards that own a doomed root.  Returns total nodes removed.
        """
        by_shard: List[List[MessageUid]] = [[] for _ in self.shards]
        for root in roots:
            by_shard[shard_of(root, self.num_shards)].append(root)
        return sum(
            shard.abandon_roots(group) for shard, group in zip(self.shards, by_shard) if group
        )

    def repair_dangling_edges(self) -> int:
        """Run the dangling-edge sweep on every shard that has ghosts."""
        return sum(
            shard.repair_dangling_edges() for shard in self.shards if shard._dangling_effects
        )

    # -- backend lifecycle ---------------------------------------------------------

    @property
    def backend_kind(self) -> str:
        """Backend kind shared by the shard fleet (``memory``/``log``).

        ``mixed`` when the shards disagree, so a fleet with any
        journaling shard never reads as ``memory`` (the replay
        eligibility check relies on that).
        """
        kinds = {shard.backend_kind for shard in self.shards}
        return kinds.pop() if len(kinds) == 1 else "mixed"

    def recover(self) -> int:
        """Replay every shard's journal (shard-index order); returns total ops.

        Shard routing is derived from each message's root uid, so each
        shard's journal replays into the shard that wrote it — the
        recovered placement is identical to the original run's.
        """
        return sum(shard.recover() for shard in self.shards)

    def flush_journal(self) -> None:
        """Hit every shard's journal durability point (shard-index order)."""
        for shard in self.shards:
            shard.flush_journal()

    def close(self) -> None:
        """Flush and close every shard's backend (idempotent)."""
        for shard in self.shards:
            shard.close()
