"""In-memory partitioned property-graph store for causal edges.

Substitute for Apache Titan (Section IV-A of the paper): the store lives
*outside* the application (in the simulation, on the monitoring host),
indexes nodes by message uid so edge hops are O(1) hash lookups, and
triggers causal-path construction when a terminal (response) node is
inserted — "the computation of this causal graph is triggered at the
graph store when the edge corresponding to [the] last message in the
causal path … is stored" (Section IV-B).

Hot-path design (the incremental-signature pipeline)
----------------------------------------------------
Path completion used to cost a full BFS over the stored graph per
completed path.  The store now maintains, *as nodes arrive*, a per-root
accumulator holding

* the canonical ``(src, msg_type, dest)`` edge-triple set of every node
  **connected to the root** (insertion-ordered dict keys, deduplicated),
* the member-uid list of those connected nodes (what eviction removes),
* the root node's message type (the path's request type).

Connectivity mirrors exactly what :func:`~repro.graphstore.query.causal_graph_bfs`
computes: a node is connected iff it can be reached from the root
through *present* nodes.  Because effects may arrive before their causes
(and causes may never arrive at all when sampling drops them), the store
propagates "reachable-from-root" marks forward whenever a node insertion
or edge insertion closes a gap — an online, one-pass restatement of the
BFS that keeps :meth:`completed_signature` and :meth:`evict_graph` O(1)
in the size of the already-processed graph.  BFS remains available in
:mod:`repro.graphstore.query` as the query/debug API and as the oracle
the equivalence tests compare against.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Set, Tuple

from repro.errors import GraphStoreError, StoreBackendError
from repro.graphstore.backend import GraphStoreBackend, MemoryBackend
from repro.graphstore.partition import HashPartitioner
from repro.lang.ir import CLIENT
from repro.lang.message import UID_ORDER_KEY, Message, MessageUid
from repro.telemetry import MetricsRegistry, get_registry

#: Bucket bounds for eviction / extraction size histograms (node counts).
GRAPH_SIZE_BUCKETS = (1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500)

#: One hop of a causal path: (source component, message type, destination).
EdgeTriple = Tuple[str, str, str]


class GraphNode:
    """A node in the causal graph: ``〈uid_M, info_M〉`` per the paper.

    ``info`` carries the message type, source/destination components and
    (optionally) payload metadata.  One node is allocated per observed
    message, so this is a ``__slots__`` class with ``is_response``
    precomputed at construction.
    """

    __slots__ = ("uid", "msg_type", "src", "dest", "info", "is_response")

    def __init__(
        self,
        uid: MessageUid,
        msg_type: str,
        src: str,
        dest: str,
        info: Optional[Mapping[str, object]] = None,
    ) -> None:
        self.uid = uid
        self.msg_type = msg_type
        self.src = src
        self.dest = dest
        self.info: Mapping[str, object] = {} if info is None else info
        #: Whether this node is a response to the external client.
        self.is_response = dest == CLIENT

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, GraphNode):
            return NotImplemented
        return (
            self.uid == other.uid
            and self.msg_type == other.msg_type
            and self.src == other.src
            and self.dest == other.dest
            and dict(self.info) == dict(other.info)
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    def __hash__(self) -> int:
        return hash((self.uid, self.msg_type, self.src, self.dest))

    def __repr__(self) -> str:
        return (
            f"GraphNode(uid={self.uid!r}, msg_type={self.msg_type!r}, "
            f"src={self.src!r}, dest={self.dest!r}, info={self.info!r})"
        )


class _RootAccumulator:
    """Incremental per-root causal-path state (see module docstring).

    ``edges`` is an insertion-ordered dict used as a deduplicated set of
    canonical hop triples; ``members`` the uids of nodes connected to the
    root (the eviction set); ``root_type`` the root node's message type,
    ``None`` until the root node itself is stored (a completion without a
    stored root is discarded, matching the BFS-era ``GraphStoreError``).
    """

    __slots__ = ("edges", "members", "root_type")

    def __init__(self) -> None:
        self.edges: Dict[EdgeTriple, None] = {}
        self.members: List[MessageUid] = []
        self.root_type: Optional[str] = None


class GraphStore:
    """Distributed-flavoured causal-graph store with a uid hash index.

    Parameters
    ----------
    num_partitions:
        Number of hash partitions (Titan would shard similarly).
    on_path_complete:
        Callback invoked with the *root uid* whenever a response node is
        inserted, signalling that the causal graph rooted there can be
        extracted (the profiler subscribes to this).  Additional
        subscribers register via :meth:`subscribe_path_complete`.
    registry:
        Telemetry registry the store reports into (the process default
        when omitted).
    backend:
        Optional :class:`~repro.graphstore.backend.GraphStoreBackend`.
        The default (:class:`~repro.graphstore.backend.MemoryBackend`)
        keeps the pre-backend in-process behaviour bit-identically; a
        journaling backend (the append-only log) has every successful
        mutation recorded after it lands, so :meth:`recover` on a fresh
        store rebuilds the exact graph state after a restart.
    """

    def __init__(
        self,
        num_partitions: int = 4,
        on_path_complete: Optional[Callable[[MessageUid], None]] = None,
        registry: Optional[MetricsRegistry] = None,
        backend: Optional[GraphStoreBackend] = None,
    ) -> None:
        self._partitioner = HashPartitioner(num_partitions)
        self._partition_of = self._partitioner.partition_of
        self._partitions: List[Dict[MessageUid, GraphNode]] = [dict() for _ in range(num_partitions)]
        self._out_edges: Dict[MessageUid, Set[MessageUid]] = {}
        self._in_edges: Dict[MessageUid, Set[MessageUid]] = {}
        self._roots: Dict[MessageUid, MessageUid] = {}
        # Incremental-signature state: per-root accumulators, the set of
        # roots each present node is connected to, and the effect uids of
        # raw add_edge() calls whose node is absent (their presence
        # forces evict_graph back onto the traversal path, because only
        # the traversal can follow edges *through* such ghosts).
        self._accumulators: Dict[MessageUid, _RootAccumulator] = {}
        self._reach: Dict[MessageUid, Set[MessageUid]] = {}
        self._dangling_effects: Set[MessageUid] = set()
        self._path_complete_subscribers: List[Callable[[MessageUid], None]] = []
        if on_path_complete is not None:
            self._path_complete_subscribers.append(on_path_complete)
        self.backend = backend if backend is not None else MemoryBackend()
        # The hot path pays one is-None check; only journaling backends
        # receive the per-mutation hooks.  ``_journal_write`` is the
        # bound ``journal_message`` (kept in lockstep with ``_journal``
        # by ``recover()``) so the per-message call skips an attribute
        # chain.
        self._journal = self.backend if self.backend.journaling else None
        self._journal_write = (
            self._journal.journal_message if self._journal is not None else None
        )
        self.telemetry = registry if registry is not None else get_registry()
        self._m_nodes = self.telemetry.counter("graphstore.nodes_added")
        self._m_edges = self.telemetry.counter("graphstore.edges_added")
        self._m_cross = self.telemetry.counter("graphstore.cross_partition_edges")
        self._m_lookups = self.telemetry.counter("graphstore.index_lookups")
        self._m_evictions = self.telemetry.counter("graphstore.evictions")
        self._m_evicted_nodes = self.telemetry.counter("graphstore.evicted_nodes")
        self._m_evict_size = self.telemetry.histogram(
            "graphstore.eviction_size_nodes", buckets=GRAPH_SIZE_BUCKETS
        )
        self._m_signature_reads = self.telemetry.counter("graphstore.signature_reads")
        self._m_dangling_repaired = self.telemetry.counter("graphstore.dangling_edges_repaired")
        # Cached handles for the BFS query path (query.py), so extraction
        # never pays a get-or-create registry lookup per call.
        self._m_bfs_extractions = self.telemetry.counter("graphstore.bfs_extractions")
        self._m_bfs_hops = self.telemetry.counter("graphstore.bfs_hops")
        self._m_extract_size = self.telemetry.histogram(
            "graphstore.extracted_graph_size_nodes", buckets=GRAPH_SIZE_BUCKETS
        )

    # -- subscriptions -----------------------------------------------------------

    def subscribe_path_complete(self, callback: Callable[[MessageUid], None]) -> None:
        """Register ``callback(root_uid)`` for response-node insertions.

        This is the public wiring point for completion consumers (the
        tracker, tests, future exporters); multiple subscribers are
        notified in registration order.
        """
        self._path_complete_subscribers.append(callback)

    def _notify_path_complete(self, root: MessageUid) -> None:
        for callback in self._path_complete_subscribers:
            callback(root)

    # -- writes ---------------------------------------------------------------

    def add_message(self, message: Message) -> GraphNode:
        """Insert the node for ``message`` and edges from each of its causes.

        Unknown cause uids are tolerated (their node may arrive later or
        may have been dropped by sampling); the edge is recorded either
        way so BFS remains correct once both endpoints exist.  The
        per-root signature accumulator is updated in the same pass:
        arriving nodes connected to their root (directly, or retroactively
        once a late cause closes a gap) contribute their hop triple and
        their uid to the root's accumulator.
        """
        uid = message.uid
        root_uid = message.root_uid
        root = uid if root_uid is None else root_uid
        # Node metadata beyond the message triple lives in side indexes
        # (``root_of``); no per-node info dict is allocated on this path.
        node = GraphNode(uid, message.msg_type, message.src, message.dest)
        uid_partition = self._partition_of(uid)
        self._partitions[uid_partition][uid] = node
        self._m_nodes.inc()
        self._roots[uid] = root
        if self._dangling_effects:
            self._dangling_effects.discard(uid)
        reach = self._reach.get(uid)
        if reach is None:
            reach = set()
            self._reach[uid] = reach
        accumulators = self._accumulators
        gained: Optional[Set[MessageUid]] = None
        # Cheap equality: compare the cached hashes before falling back to
        # the (Python-level) __eq__ call; roots usually arrive with
        # root_uid=None so the identity branch dominates.
        if uid is root or (uid._hash == root._hash and uid == root):
            acc = accumulators.get(root)
            if acc is None:
                accumulators[root] = acc = _RootAccumulator()
            acc.root_type = message.msg_type
            gained = {root}
        preds = self._in_edges.get(uid)
        if preds:
            # Out-of-order arrival: effects already recorded edges to this
            # node before it was stored; inherit their connectivity now.
            for pred in preds:
                pred_reach = self._reach.get(pred)
                if pred_reach:
                    if gained is None:
                        gained = set(pred_reach)
                    else:
                        gained |= pred_reach
        if gained:
            gained -= reach
            if gained:
                self._gain_reach(uid, node, gained)
        causes = message.cause_uids
        if causes:
            # Inlined add_edge loop: the effect node (this one) is known
            # to be present, its partition is already hashed, and the
            # edge counters are batched per message instead of per edge.
            out_edges = self._out_edges
            reach_index = self._reach
            inn = self._in_edges.get(uid)
            if inn is None:
                self._in_edges[uid] = inn = set()
            # Successors of this node cannot change inside the loop (the
            # loop only touches the causes' out-edge sets), so the
            # no-cascade fast path is decided once.
            uid_succs = out_edges.get(uid)
            triple = (node.src, node.msg_type, node.dest)
            cross = 0
            for cause in causes:
                if cause._hash == uid._hash and cause == uid:
                    raise GraphStoreError(f"self-causation edge on {cause}")
                out = out_edges.get(cause)
                if out is None:
                    out_edges[cause] = out = set()
                out.add(uid)
                inn.add(cause)
                if self._partition_of(cause) != uid_partition:
                    cross += 1
                cause_reach = reach_index.get(cause)
                if cause_reach:
                    new = cause_reach if not reach else cause_reach - reach
                    if new:
                        if uid_succs:
                            self._gain_reach(uid, node, new)
                        else:
                            # In-order arrival: no effects yet, nothing to
                            # cascade — accumulate in place.
                            reach.update(new)
                            for r in new:
                                acc = accumulators.get(r)
                                if acc is None:
                                    accumulators[r] = acc = _RootAccumulator()
                                acc.edges[triple] = None
                                acc.members.append(uid)
            self._m_edges.inc(len(causes))
            if cross:
                self._m_cross.inc(cross)
        if self._journal_write is not None:
            # Journal after the mutation landed and before completion
            # subscribers run (a subscriber may journal an eviction).
            self._journal_write(message)
        if node.is_response:
            self._notify_path_complete(root)
        return node

    def add_messages(self, messages: Iterable[Message]) -> int:
        """Bulk insert a batch of messages; returns how many were stored."""
        add = self.add_message
        count = 0
        for message in messages:
            add(message)
            count += 1
        return count

    def flush_journal(self) -> None:
        """Push buffered journal frames to the backend's durability point.

        Batch handoff (:meth:`add_messages`) deliberately does *not*
        flush — a per-batch write syscall would dominate the batched
        pipeline's ingest cost.  Durability instead rides the backend's
        byte-bounded auto-flush plus this explicit point, which the
        batched write pipeline hits once per drain (i.e. per flush
        interval) and ``close()`` hits last.
        """
        if self._journal is not None:
            self._journal.flush()

    def add_edge(self, cause: MessageUid, effect: MessageUid) -> None:
        """Record a directed causal edge ``cause → effect``."""
        if cause == effect:
            raise GraphStoreError(f"self-causation edge on {cause}")
        out = self._out_edges.get(cause)
        if out is None:
            self._out_edges[cause] = out = set()
        out.add(effect)
        inn = self._in_edges.get(effect)
        if inn is None:
            self._in_edges[effect] = inn = set()
        inn.add(cause)
        self._m_edges.inc()
        if self._partition_of(cause) != self._partition_of(effect):
            self._m_cross.inc()
        if self._journal is not None:
            self._journal.journal_edge(cause, effect)
        effect_reach = self._reach.get(effect)
        if effect_reach is None:
            # Raw edge to a node that is not (yet) stored; remember it so
            # eviction keeps its traversal semantics for such ghosts.
            self._dangling_effects.add(effect)
            return
        cause_reach = self._reach.get(cause)
        if cause_reach:
            new = cause_reach - effect_reach
            if new:
                self._gain_reach(effect, self._node_at(effect), new)

    def _gain_reach(
        self, uid: MessageUid, node: GraphNode, new_roots: Set[MessageUid]
    ) -> None:
        """Mark ``uid`` reachable from ``new_roots`` and cascade forward.

        ``new_roots`` must be disjoint from the node's current reach set.
        Each (node, root) pair is processed at most once over the life of
        the graph, so the total accumulation work is O(edges) — the same
        asymptotics a single BFS pays, amortised over insertions.
        """
        if not self._out_edges.get(uid):
            # In-order arrival (the common case): the node has no effects
            # yet, so nothing can cascade — skip the worklist machinery.
            self._reach[uid].update(new_roots)
            triple = (node.src, node.msg_type, node.dest)
            accumulators = self._accumulators
            for root in new_roots:
                acc = accumulators.get(root)
                if acc is None:
                    accumulators[root] = acc = _RootAccumulator()
                acc.edges[triple] = None
                acc.members.append(uid)
            return
        stack: List[Tuple[MessageUid, GraphNode, Set[MessageUid]]] = [(uid, node, new_roots)]
        accumulators = self._accumulators
        reach_index = self._reach
        out_edges = self._out_edges
        while stack:
            uid, node, roots = stack.pop()
            reach = reach_index[uid]
            roots = roots - reach
            if not roots:
                continue
            reach.update(roots)
            triple = (node.src, node.msg_type, node.dest)
            for root in roots:
                acc = accumulators.get(root)
                if acc is None:
                    accumulators[root] = acc = _RootAccumulator()
                acc.edges[triple] = None
                acc.members.append(uid)
            succs = out_edges.get(uid)
            if succs:
                for succ in succs:
                    succ_reach = reach_index.get(succ)
                    if succ_reach is None:
                        continue  # effect node absent (sampled away)
                    delta = roots - succ_reach
                    if delta:
                        stack.append((succ, self._node_at(succ), delta))

    def _node_at(self, uid: MessageUid) -> Optional[GraphNode]:
        """Internal node fetch that does not count as an index lookup."""
        return self._partitions[self._partition_of(uid)].get(uid)

    # -- reads ------------------------------------------------------------------

    def get_node(self, uid: MessageUid) -> Optional[GraphNode]:
        """O(1) hash-index lookup of a node by uid."""
        self._m_lookups.inc()
        return self._partitions[self._partition_of(uid)].get(uid)

    def contains(self, uid: MessageUid) -> bool:
        """Whether ``uid``'s node is stored (no index-lookup accounting)."""
        return self._partitions[self._partition_of(uid)].get(uid) is not None

    def require_node(self, uid: MessageUid) -> GraphNode:
        node = self.get_node(uid)
        if node is None:
            raise GraphStoreError(f"unknown node uid {uid}")
        return node

    def successors(self, uid: MessageUid) -> Set[MessageUid]:
        """Effects directly caused by ``uid`` (defensive copy)."""
        return set(self._out_edges.get(uid, ()))

    def predecessors(self, uid: MessageUid) -> Set[MessageUid]:
        """Direct causes of ``uid`` (defensive copy)."""
        return set(self._in_edges.get(uid, ()))

    def iter_successors(self, uid: MessageUid) -> Iterator[MessageUid]:
        """Copy-free iteration over the effects of ``uid``.

        Do not mutate the store while iterating; use :meth:`successors`
        when a stable snapshot is needed.
        """
        return iter(self._out_edges.get(uid, ()))

    def iter_predecessors(self, uid: MessageUid) -> Iterator[MessageUid]:
        """Copy-free iteration over the direct causes of ``uid``.

        Do not mutate the store while iterating; use :meth:`predecessors`
        when a stable snapshot is needed.
        """
        return iter(self._in_edges.get(uid, ()))

    def node_count(self) -> int:
        return sum(len(p) for p in self._partitions)

    def root_of(self, uid: MessageUid) -> Optional[MessageUid]:
        """Root (external request) uid recorded for ``uid``, if any."""
        return self._roots.get(uid)

    def all_uids(self) -> Iterable[MessageUid]:
        for part in self._partitions:
            yield from part.keys()

    # -- incremental signatures ---------------------------------------------------

    def completed_signature(
        self, root: MessageUid
    ) -> Optional[Tuple[str, Tuple[EdgeTriple, ...]]]:
        """``(request_type, edge_triples)`` accumulated for ``root``.

        Returns ``None`` when the root node itself was never stored
        (sampled away, or already evicted) — the same condition under
        which BFS extraction raises and the tracker discards the
        completion.  The triples are the hops of every node connected to
        the root, deduplicated, in first-connection order; callers
        needing the canonical (sorted) form sort the handful of
        component-level hops themselves.
        """
        acc = self._accumulators.get(root)
        if acc is None or acc.root_type is None:
            return None
        self._m_signature_reads.inc()
        return acc.root_type, tuple(acc.edges)

    def graph_members(self, root: MessageUid) -> Tuple[MessageUid, ...]:
        """Uids currently accumulated as connected to ``root``.

        Exposed for tests and debugging; eviction consumes the same list.
        """
        acc = self._accumulators.get(root)
        if acc is None:
            return ()
        return tuple(acc.members)

    # -- maintenance ---------------------------------------------------------------

    def evict_graph(self, root: MessageUid) -> int:
        """Remove the nodes/edges of a completed causal graph to bound memory.

        Returns the number of nodes removed.  The simulation calls this
        after the profiler has consumed a completed path.  When ``root``
        has an accumulator (the hot path), the member list is dropped
        directly — no re-traversal; otherwise (root never stored, or raw
        dangling edges present) the legacy reachability sweep runs.
        """
        acc = self._accumulators.get(root)
        if acc is None or acc.root_type is None or self._dangling_effects:
            removed = self._evict_by_traversal(root)
        else:
            del self._accumulators[root]
            removed = self._remove_all(acc.members)
        self._m_evictions.inc()
        self._m_evicted_nodes.inc(removed)
        self._m_evict_size.observe(removed)
        if self._journal is not None:
            self._journal.journal_evict(root)
            self._journal.flush()
        return removed

    def abandon_root(self, root: MessageUid) -> int:
        """Remove every node recorded against ``root``, completed or not.

        Eviction (:meth:`evict_graph`) follows edges, so it cannot clean
        up after a *lost* root: when the external-request message is
        dropped, its descendants are stored with ``root`` in the side
        index but nothing connects them.  Single-root form of
        :meth:`abandon_roots`, which every caller under ``src/`` uses;
        returns the number of nodes removed.
        """
        return self.abandon_roots((root,))

    def abandon_roots(self, roots: Iterable[MessageUid]) -> int:
        """Abandon every root in ``roots`` with one pass over the root index.

        The tracker's path-abandonment sweep hands over all expired roots
        at once; their members are grouped in a single O(stored nodes)
        scan (one dict probe per node, however many roots are doomed).
        Each root is then reclaimed in input order exactly as a lone
        :meth:`abandon_root` would: one eviction-telemetry tick and one
        ``journal_abandon`` frame + flush per root.  Returns the total
        number of nodes removed.
        """
        roots = list(roots)
        doomed: Dict[MessageUid, List[MessageUid]] = {root: [] for root in roots}
        for uid, root in self._roots.items():
            members = doomed.get(root)
            if members is not None:
                members.append(uid)
        total = 0
        for root in roots:
            self._accumulators.pop(root, None)
            # pop: a root listed twice finds nothing left the second time.
            removed = self._remove_all(doomed.pop(root, ()))
            total += removed
            self._m_evictions.inc()
            self._m_evicted_nodes.inc(removed)
            self._m_evict_size.observe(removed)
            if self._journal is not None:
                self._journal.journal_abandon(root)
                self._journal.flush()
        return total

    def _evict_by_traversal(self, root: MessageUid) -> int:
        """Reachability sweep (the pre-incremental eviction semantics)."""
        frontier = [root]
        seen: Set[MessageUid] = set()
        while frontier:
            uid = frontier.pop()
            if uid in seen:
                continue
            seen.add(uid)
            frontier.extend(self._out_edges.get(uid, ()))
        return self._remove_all(seen)

    def _unlink_edges(self, uid: MessageUid) -> None:
        """Drop every in/out edge touching ``uid`` from both indexes."""
        succs = self._out_edges.pop(uid, None)
        if succs:
            for succ in succs:
                in_set = self._in_edges.get(succ)
                if in_set is not None:
                    in_set.discard(uid)
        preds = self._in_edges.pop(uid, None)
        if preds:
            for pred in preds:
                out_set = self._out_edges.get(pred)
                if out_set is not None:
                    out_set.discard(uid)
                    if not out_set:
                        # ``pred`` may never be stored (a stale provenance
                        # uid), so nothing else would reclaim its entry.
                        del self._out_edges[pred]

    def repair_dangling_edges(self) -> int:
        """Detach raw edges whose effect node was never stored.

        ``add_edge`` tolerates edges to absent nodes because the node may
        still arrive; under message loss it never does, and each such
        ghost pins :meth:`evict_graph` on the traversal fallback forever.
        This sweep — the tracker runs it from its maintenance pass —
        unlinks the ghosts' edges (the same unlink core eviction uses)
        and restores the O(1) eviction path.  Returns the number of ghost
        uids repaired.
        """
        if not self._dangling_effects:
            return 0
        repaired = 0
        for ghost in sorted(self._dangling_effects, key=UID_ORDER_KEY):
            if self._node_at(ghost) is not None:
                # The node arrived after all (defensive: add_message
                # already clears it from the dangling set).
                continue
            self._unlink_edges(ghost)
            repaired += 1
        self._dangling_effects.clear()
        if repaired:
            self._m_dangling_repaired.inc(repaired)
        if self._journal is not None:
            self._journal.journal_repair()
            self._journal.flush()
        return repaired

    def _remove_all(self, uids: Iterable[MessageUid]) -> int:
        removed = 0
        partitions = self._partitions
        partition_of = self._partition_of
        roots = self._roots
        reach_index = self._reach
        accumulators = self._accumulators
        for uid in uids:
            part = partitions[partition_of(uid)]
            if part.pop(uid, None) is None:
                continue  # never stored, or already swept by an overlapping graph
            removed += 1
            self._unlink_edges(uid)
            del roots[uid]
            del reach_index[uid]
            # The uid may itself be the root of an accumulator (bridged
            # graphs); dropping it keeps completed_signature honest.
            if accumulators:
                accumulators.pop(uid, None)
        return removed

    # -- backend lifecycle ---------------------------------------------------------

    @property
    def backend_kind(self) -> str:
        """The attached backend's kind (``memory``/``log``)."""
        return self.backend.kind

    def recover(self) -> int:
        """Rebuild graph state by replaying the backend's journal.

        Call on a *fresh* store opened over an existing log directory
        (``LogBackend(..., create=False)``).  Replay detaches the
        journal (ops must not re-journal) and the completion subscribers
        (completions already fired in the crashed process; replay must
        not re-trigger the profiler).
        Telemetry counters do tick during replay — recovery is real work
        this process performs — so recover into a private registry when
        counter deltas matter.  Returns the number of ops replayed.
        """
        backend = self.backend
        if not backend.journaling:
            return 0
        if self.node_count() or self._roots:
            raise StoreBackendError(
                "recover() requires an empty store — open a fresh store over "
                "the existing log directory first"
            )
        journal, self._journal = self._journal, None
        journal_write, self._journal_write = self._journal_write, None
        subscribers = self._path_complete_subscribers
        self._path_complete_subscribers = []
        try:
            return backend.replay_into(self)
        finally:
            self._journal = journal
            self._journal_write = journal_write
            self._path_complete_subscribers = subscribers

    def close(self) -> None:
        """Flush and close the backend (idempotent; memory is a no-op)."""
        self.backend.close()
