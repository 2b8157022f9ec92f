"""In-memory property-graph store for causal edges.

Substitute for Apache Titan (Section IV-A of the paper): the store lives
*outside* the application (in the simulation, on the monitoring host),
indexes nodes by message uid so edge hops are O(1) hash lookups, and
triggers causal-path construction when a terminal (response) node is
inserted — "the computation of this causal graph is triggered at the
graph store when the edge corresponding to [the] last message in the
causal path … is stored" (Section IV-B).

One index, one record per uid
-----------------------------
The store keeps a single dict, ``uid → record``.  A record holds
everything known about that uid — the node (``None`` while the uid is
only named as someone's cause), the root it was recorded against, its
adjacency, the roots it is connected to and, on a stored root, the
path's accumulator — and neighbours are referenced as *records*, which
hash by identity.  ``add_message`` therefore hashes a uid once for the
message and once per cause; edge insertion, reach propagation and
eviction never hash a uid again.  Adjacency is an insertion-ordered dict
(not a set): the order in which a late cause's successors are connected
decides member and hop order, and must not depend on memory addresses or
``PYTHONHASHSEED``.

Hot-path design (the incremental-signature pipeline)
----------------------------------------------------
Path completion used to cost a full BFS over the stored graph per
completed path.  The store now maintains, *as nodes arrive*, a per-root
accumulator holding

* the canonical ``(src, msg_type, dest)`` edge-triple set of every node
  **connected to the root** (insertion-ordered dict keys, deduplicated),
* the member list of those connected nodes (what eviction removes).

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

from typing import (
    Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple,
)

from repro.errors import GraphStoreError, StoreBackendError
from repro.graphstore.backend import GraphStoreBackend, MemoryBackend
from repro.lang.ir import CLIENT
from repro.lang.message import Message, MessageUid
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
    canonical hop triples; ``members`` the records of nodes connected to
    the root (the eviction set), in first-connection order.
    """

    __slots__ = ("edges", "members")

    def __init__(self) -> None:
        self.edges: Dict[EdgeTriple, None] = {}
        self.members: List["_Record"] = []


class _Record:
    """Everything the store knows about one uid (see module docstring).

    ``node`` is ``None`` while the uid is only known as an edge endpoint:
    a cause that has not arrived (or never will), or the effect of a raw
    :meth:`GraphStore.add_edge`.  ``reach`` is the set of *root records*
    the node is connected to (``None`` until the node is stored) and
    ``acc`` the accumulator of a stored root.  ``preds``/``succs`` are
    insertion-ordered dicts keyed by neighbour record.  Records hash by
    identity, so once ``index.get(uid)`` has found one, nothing
    downstream hashes a uid again.  ``live`` turns false when the record
    leaves the index; a dead record drops its references.
    """

    __slots__ = ("uid", "node", "root", "reach", "preds", "succs", "acc", "live")

    def __init__(self, uid: MessageUid) -> None:
        self.uid = uid
        self.node: Optional[GraphNode] = None
        self.root: Optional[MessageUid] = None
        self.reach: Optional[Set["_Record"]] = None
        self.preds: Dict["_Record", None] = {}
        self.succs: Dict["_Record", None] = {}
        self.acc: Optional[_RootAccumulator] = None
        self.live = True


class GraphStore:
    """Causal-graph store with a uid hash index.

    One store is one shard: it answers the shard protocol
    (:mod:`repro.graphstore.sharded`) as a fleet of one, so callers need
    not tell it from a :class:`~repro.graphstore.sharded.ShardedGraphStore`.

    Parameters
    ----------
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
        on_path_complete: Optional[Callable[[MessageUid], None]] = None,
        registry: Optional[MetricsRegistry] = None,
        backend: Optional[GraphStoreBackend] = None,
    ) -> None:
        # The one index.  It holds a record for every stored node and for
        # every uid a live edge names; ``_stored`` counts the former.
        self._index: Dict[MessageUid, _Record] = {}
        self._stored = 0
        # Effect uids of raw add_edge() calls whose node is absent (their
        # presence forces evict_graph back onto the traversal path,
        # because only the traversal can follow edges *through* such
        # ghosts).
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

    # -- shard protocol (see repro.graphstore.sharded) -----------------------------

    @property
    def shards(self) -> Tuple["GraphStore"]:
        """A fleet of one: this store is its own only shard."""
        return (self,)

    def shard_index_of(self, root: MessageUid) -> int:
        """Every root lives in shard 0."""
        return 0

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

    def _record_for(self, uid: MessageUid) -> _Record:
        """The record of ``uid``, created node-less if the uid is new."""
        rec = self._index.get(uid)
        if rec is None:
            self._index[uid] = rec = _Record(uid)
        return rec

    def add_message(self, message: Message) -> GraphNode:
        """Insert the node for ``message`` and edges from each of its causes.

        Unknown cause uids are tolerated (their node may arrive later or
        may have been dropped by sampling); the edge is recorded either
        way so BFS remains correct once both endpoints exist.  The
        per-root signature accumulator is updated in the same pass:
        arriving nodes connected to their root (directly, or retroactively
        once a late cause closes a gap) contribute their hop triple and
        their record to the root's accumulator.
        """
        uid = message.uid
        root_uid = message.root_uid
        node = GraphNode(uid, message.msg_type, message.src, message.dest)
        rec = self._record_for(uid)
        if rec.node is None:
            self._stored += 1
            rec.reach = set()
            if self._dangling_effects:
                self._dangling_effects.discard(uid)
        # A duplicate delivery lands in the record it already has.
        rec.node = node
        rec.root = uid if root_uid is None else root_uid
        self._m_nodes.inc()
        reach = rec.reach
        gained: Optional[Set[_Record]] = None
        if root_uid is None or root_uid == uid:
            if rec.acc is None:
                rec.acc = _RootAccumulator()
            gained = {rec}
        preds = rec.preds
        if preds:
            # Out-of-order arrival: effects already recorded edges to this
            # node before it was stored; inherit their connectivity now.
            for pred in preds:
                pred_reach = pred.reach
                if pred_reach:
                    if gained is None:
                        gained = set(pred_reach)
                    else:
                        gained |= pred_reach
        if gained:
            gained -= reach
            if gained:
                self._gain_reach(rec, gained)
        causes = message.cause_uids
        if causes:
            # Inlined add_edge loop: the effect record (this one) is in
            # hand and the edge counters are batched per message.
            index = self._index
            # Successors of this node cannot change inside the loop (the
            # loop only touches the causes' successor dicts), so the
            # no-cascade fast path is decided once.
            has_succs = bool(rec.succs)
            triple = (node.src, node.msg_type, node.dest)
            for cause in causes:
                cause_rec = index.get(cause)
                if cause_rec is None:
                    index[cause] = cause_rec = _Record(cause)
                elif cause_rec is rec:
                    raise GraphStoreError(f"self-causation edge on {cause}")
                cause_rec.succs[rec] = None
                preds[cause_rec] = None
                cause_reach = cause_rec.reach
                if cause_reach:
                    new = cause_reach if not reach else cause_reach - reach
                    if new:
                        if has_succs:
                            self._gain_reach(rec, new)
                        else:
                            # In-order arrival: no effects yet, nothing to
                            # cascade — accumulate in place.
                            reach.update(new)
                            for root_rec in new:
                                acc = root_rec.acc
                                if acc is not None:
                                    acc.edges[triple] = None
                                    acc.members.append(rec)
            self._m_edges.inc(len(causes))
        if self._journal_write is not None:
            # Journal after the mutation landed and before completion
            # subscribers run (a subscriber may journal an eviction).
            self._journal_write(message)
        if node.is_response:
            self._notify_path_complete(rec.root)
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
        cause_rec = self._record_for(cause)
        effect_rec = self._record_for(effect)
        cause_rec.succs[effect_rec] = None
        effect_rec.preds[cause_rec] = None
        self._m_edges.inc()
        if self._journal is not None:
            self._journal.journal_edge(cause, effect)
        if effect_rec.node is None:
            # Raw edge to a node that is not (yet) stored; remember it so
            # eviction keeps its traversal semantics for such ghosts.
            self._dangling_effects.add(effect)
            return
        cause_reach = cause_rec.reach
        if cause_reach:
            new = cause_reach - effect_rec.reach
            if new:
                self._gain_reach(effect_rec, new)

    def _gain_reach(self, rec: _Record, new_roots: Set[_Record]) -> None:
        """Mark ``rec`` reachable from ``new_roots`` and cascade forward.

        ``new_roots`` must be disjoint from the record's current reach
        set.  Each (node, root) pair is processed at most once over the
        life of the graph, so the total accumulation work is O(edges) —
        the same asymptotics a single BFS pays, amortised over
        insertions.  A root that was removed while a survivor still
        carried it (``acc is None``) accumulates nothing.
        """
        stack: List[Tuple[_Record, Set[_Record]]] = [(rec, new_roots)]
        while stack:
            rec, roots = stack.pop()
            reach = rec.reach
            if reach:
                roots = roots - reach
                if not roots:
                    continue
            reach.update(roots)
            node = rec.node
            triple = (node.src, node.msg_type, node.dest)
            for root_rec in roots:
                acc = root_rec.acc
                if acc is not None:
                    acc.edges[triple] = None
                    acc.members.append(rec)
            # In-order arrival (the common case) has no successors yet
            # and ends here; successors cascade in insertion order.
            for succ in rec.succs:
                if succ.node is None:
                    continue  # effect node absent (sampled away)
                delta = roots - succ.reach
                if delta:
                    stack.append((succ, delta))

    def _node_at(self, uid: MessageUid) -> Optional[GraphNode]:
        """Internal node fetch that does not count as an index lookup."""
        rec = self._index.get(uid)
        return None if rec is None else rec.node

    # -- reads ------------------------------------------------------------------

    def get_node(self, uid: MessageUid) -> Optional[GraphNode]:
        """O(1) hash-index lookup of a node by uid."""
        self._m_lookups.inc()
        return self._node_at(uid)

    def contains(self, uid: MessageUid) -> bool:
        """Whether ``uid``'s node is stored (no index-lookup accounting)."""
        return self._node_at(uid) is not None

    def successors(self, uid: MessageUid) -> Set[MessageUid]:
        """Effects directly caused by ``uid`` (a fresh set)."""
        return set(self.iter_successors(uid))

    def predecessors(self, uid: MessageUid) -> Set[MessageUid]:
        """Direct causes of ``uid`` (a fresh set)."""
        return set(self.iter_predecessors(uid))

    def iter_successors(self, uid: MessageUid) -> Iterator[MessageUid]:
        """Copy-free iteration over the effects of ``uid``, in edge-insertion order.

        Do not mutate the store while iterating; use :meth:`successors`
        when a stable snapshot is needed.
        """
        rec = self._index.get(uid)
        return iter(()) if rec is None else (succ.uid for succ in rec.succs)

    def iter_predecessors(self, uid: MessageUid) -> Iterator[MessageUid]:
        """Copy-free iteration over the direct causes of ``uid``.

        Do not mutate the store while iterating; use :meth:`predecessors`
        when a stable snapshot is needed.
        """
        rec = self._index.get(uid)
        return iter(()) if rec is None else (pred.uid for pred in rec.preds)

    def node_count(self) -> int:
        return self._stored

    def all_uids(self) -> Iterable[MessageUid]:
        for uid, rec in self._index.items():
            if rec.node is not None:
                yield uid

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
        rec = self._index.get(root)
        if rec is None or rec.acc is None:
            return None
        self._m_signature_reads.inc()
        return rec.node.msg_type, tuple(rec.acc.edges)

    def graph_members(self, root: MessageUid) -> Tuple[MessageUid, ...]:
        """Uids currently accumulated as connected to ``root``.

        Exposed for tests and debugging; eviction consumes the same list.
        """
        rec = self._index.get(root)
        if rec is None or rec.acc is None:
            return ()
        return tuple(member.uid for member in rec.acc.members)

    # -- maintenance ---------------------------------------------------------------

    def evict_graph(self, root: MessageUid) -> int:
        """Remove the nodes/edges of a completed causal graph to bound memory.

        Returns the number of nodes removed.  The simulation calls this
        after the profiler has consumed a completed path.  When ``root``
        is stored (the hot path), its accumulator's member list is
        dropped directly — no re-traversal; otherwise (root never stored,
        or raw dangling edges present) the legacy reachability sweep runs.
        """
        rec = self._index.get(root)
        if rec is None or rec.acc is None or self._dangling_effects:
            removed = self._evict_by_traversal(rec)
        else:
            removed = self._remove_all(rec.acc.members)
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
        dropped, its descendants are stored with ``root`` in their
        records but nothing connects them.  Single-root form of
        :meth:`abandon_roots`, which every caller under ``src/`` uses;
        returns the number of nodes removed.
        """
        return self.abandon_roots((root,))

    def abandon_roots(self, roots: Iterable[MessageUid]) -> int:
        """Abandon every root in ``roots`` with one pass over the index.

        The tracker's path-abandonment sweep hands over all expired roots
        at once; their members are grouped in a single O(index) scan (one
        dict probe per record, however many roots are doomed).  Each root
        is then reclaimed in input order exactly as a lone
        :meth:`abandon_root` would: one eviction-telemetry tick and one
        ``journal_abandon`` frame + flush per root.  Returns the total
        number of nodes removed.
        """
        roots = list(roots)
        doomed: Dict[Optional[MessageUid], List[_Record]] = {root: [] for root in roots}
        for rec in self._index.values():
            members = doomed.get(rec.root)
            if members is not None:
                members.append(rec)
        total = 0
        for root in roots:
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

    def _evict_by_traversal(self, root_rec: Optional[_Record]) -> int:
        """Reachability sweep (the pre-incremental eviction semantics).

        Follows successor edges through node-less records too, which is
        what makes it the only correct eviction while raw-edge ghosts
        exist.
        """
        if root_rec is None:
            return 0
        frontier = [root_rec]
        seen: Dict[_Record, None] = {}
        while frontier:
            rec = frontier.pop()
            if rec in seen:
                continue
            seen[rec] = None
            frontier.extend(rec.succs)
        return self._remove_all(seen)

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
        for ghost in sorted(self._dangling_effects):
            rec = self._index.get(ghost)
            if rec is not None:
                if rec.node is not None:
                    # The node arrived after all (defensive: add_message
                    # already clears it from the dangling set).
                    continue
                self._discard((rec,))
            repaired += 1
        self._dangling_effects.clear()
        if repaired:
            self._m_dangling_repaired.inc(repaired)
        if self._journal is not None:
            self._journal.journal_repair()
            self._journal.flush()
        return repaired

    def _remove_all(self, records: Iterable[_Record]) -> int:
        """Remove the stored nodes among ``records``; returns how many."""
        dying = []
        for rec in records:
            if rec.node is None:
                continue  # never stored, or already swept by an overlapping graph
            rec.node = None
            dying.append(rec)
        self._stored -= len(dying)
        self._discard(dying)
        return len(dying)

    def _discard(self, dying: Sequence[_Record]) -> None:
        """Take ``dying`` records out of the index and off their neighbours.

        The whole batch is marked dead first, so the edges *inside* a
        completed graph cost one flag test per end; only live neighbours
        are unlinked.  A node-less predecessor left with no edge at all
        (a cause that was never stored) goes with its last successor.
        Dead records drop their references: adjacency, reach sets and
        member lists point at each other, and refcounting alone should
        free an evicted graph.
        """
        index = self._index
        for rec in dying:
            rec.live = False
            del index[rec.uid]
        for rec in dying:
            for succ in rec.succs:
                if succ.live:
                    del succ.preds[rec]
            for pred in rec.preds:
                if pred.live:
                    pred_succs = pred.succs
                    del pred_succs[rec]
                    if not pred_succs and pred.node is None and not pred.preds:
                        pred.live = False
                        del index[pred.uid]
            rec.preds = rec.succs = rec.reach = rec.acc = None

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
        if self._index:
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
