"""Process-shared graph store: one store server, many experiment workers.

PR 5's parallel runner (``run_all_managers(..., workers=N)``) gives each
worker a private in-process store and merges per-worker telemetry
snapshots afterwards.  The paper's deployment has no such merge step:
every monitored process writes into *one* external graph store (Titan).
This module reproduces that shape dependency-free with the stdlib:

* :class:`SharedStoreServer` hosts a
  :class:`multiprocessing.managers.BaseManager` on a Unix socket.  The
  server process holds one :class:`StoreHub` table of one real
  :class:`~repro.graphstore.store.GraphStore` /
  :class:`~repro.graphstore.sharded.ShardedGraphStore` **per
  namespace** (one namespace per manager under the experiment runner),
  each with its own server-side telemetry registry.
* :class:`SharedGraphStoreClient` is a drop-in store facade for the
  tracker and the batched write pipeline: it duck-types the store
  surface (writes, per-root reads, maintenance, completion
  subscriptions) over proxy calls; path-complete subscribers fire
  client-side from the completion roots each write call returns.

Concurrency rules
-----------------
Namespaces are disjoint: concurrent workers touch different namespaces,
so the only cross-worker shared state is the hub's namespace table
(guarded by a lock).  Within a namespace there is exactly one writer
(its worker), so the underlying store needs no extra locking — the same
single-writer discipline the in-process store already assumes.  On
:meth:`SharedGraphStoreClient.close` the client merges its namespace's
server-side registry snapshot into its local registry, so a shared-store
run's final telemetry is bit-identical (non-volatile keys) to the same
run on the memory backend — workers share the store instead of merging
store state, and only the counters travel back.
"""

from __future__ import annotations

import os
import tempfile
import threading
from itertools import groupby
from multiprocessing.managers import BaseManager
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from repro.errors import StoreBackendError
from repro.graphstore.sharded import ShardedGraphStore, shard_of
from repro.graphstore.store import GraphStore
from repro.lang.message import Message, MessageUid
from repro.telemetry import MetricsRegistry, get_registry

#: Default authkey size (bytes) for freshly started servers.
_AUTHKEY_BYTES = 16


class StoreHub:
    """Server-side handle on the one table of stores: a store + registry
    per namespace.

    Every method takes the namespace first; proxies serialize arguments
    with pickle, so uids/messages cross the boundary as values.  Write
    methods return the root uids whose paths completed during the call
    (in notification order) — the client fires its local subscribers
    from them, keeping completion semantics identical to an in-process
    store.

    The table lives on the class and every client gets a handle of its
    own.  A process shares one connection per server among its proxies
    and multiprocessing closes it when the last proxy *id* is released:
    with one shared handle, a dropped client's proxy — which a tracker's
    subscription leaves to the cycle collector, so at any allocation —
    closed the connection in the middle of the next client's call.
    """

    _lock = threading.Lock()
    _stores: dict = {}
    _registries: dict = {}
    _completed: dict = {}

    def ensure(self, namespace: str, num_shards: int) -> None:
        """Create the namespace's store on first use (idempotent)."""
        with self._lock:
            if namespace in self._stores:
                return
            registry = MetricsRegistry()
            completed: List[MessageUid] = []
            if num_shards > 1:
                store = ShardedGraphStore(num_shards=num_shards, registry=registry)
            else:
                store = GraphStore(registry=registry)
            store.subscribe_path_complete(completed.append)
            self._stores[namespace] = store
            self._registries[namespace] = registry
            self._completed[namespace] = completed

    def _drain(self, namespace: str) -> List[MessageUid]:
        completed = self._completed[namespace]
        if not completed:
            return []
        drained = list(completed)
        completed.clear()
        return drained

    # -- writes ------------------------------------------------------------------

    def add_message(self, namespace: str, message: Message) -> List[MessageUid]:
        self._stores[namespace].add_message(message)
        return self._drain(namespace)

    def add_messages(
        self, namespace: str, shard_index: int, messages: Sequence[Message]
    ) -> Tuple[int, List[MessageUid]]:
        """Batch write straight into one shard of the namespace's store.

        Mirrors the batched pipeline's direct ``shards[i].add_messages``
        write path, so batch/flush telemetry and per-shard ordering are
        identical to the in-process configuration.
        """
        count = self._stores[namespace].shards[shard_index].add_messages(messages)
        return count, self._drain(namespace)

    def add_edge(
        self, namespace: str, cause: MessageUid, effect: MessageUid
    ) -> List[MessageUid]:
        self._stores[namespace].add_edge(cause, effect)
        return self._drain(namespace)

    # -- reads -------------------------------------------------------------------

    def contains(self, namespace: str, uid: MessageUid) -> bool:
        return self._stores[namespace].contains(uid)

    def get_node(self, namespace: str, uid: MessageUid):
        return self._stores[namespace].get_node(uid)

    def node_count(self, namespace: str) -> int:
        return self._stores[namespace].node_count()

    def root_of(self, namespace: str, uid: MessageUid) -> Optional[MessageUid]:
        return self._stores[namespace].root_of(uid)

    def successors(self, namespace: str, uid: MessageUid) -> Set[MessageUid]:
        return self._stores[namespace].successors(uid)

    def predecessors(self, namespace: str, uid: MessageUid) -> Set[MessageUid]:
        return self._stores[namespace].predecessors(uid)

    def all_uids(self, namespace: str) -> List[MessageUid]:
        return list(self._stores[namespace].all_uids())

    def completed_signature(self, namespace: str, root: MessageUid):
        return self._stores[namespace].completed_signature(root)

    def graph_members(self, namespace: str, root: MessageUid) -> Tuple[MessageUid, ...]:
        return self._stores[namespace].graph_members(root)

    # -- maintenance -------------------------------------------------------------

    def evict_graph(self, namespace: str, root: MessageUid) -> int:
        return self._stores[namespace].evict_graph(root)

    def abandon_roots(self, namespace: str, roots: Sequence[MessageUid]) -> int:
        return self._stores[namespace].abandon_roots(roots)

    def repair_dangling_edges(self, namespace: str) -> int:
        return self._stores[namespace].repair_dangling_edges()

    # -- telemetry ----------------------------------------------------------------

    def snapshot(self, namespace: str) -> dict:
        """The namespace's server-side registry snapshot (client merges it)."""
        return self._registries[namespace].snapshot()


class _StoreManager(BaseManager):
    pass


_StoreManager.register("hub", callable=StoreHub)


class SharedStoreServer:
    """Owns the store-server process behind one Unix socket."""

    def __init__(self, address: Optional[str] = None, authkey: Optional[bytes] = None) -> None:
        self._socket_dir: Optional[str] = None
        if address is None:
            self._socket_dir = tempfile.mkdtemp(prefix="repro-store-")
            address = os.path.join(self._socket_dir, "store.sock")
        self.address = address
        self.authkey = authkey if authkey is not None else os.urandom(_AUTHKEY_BYTES)
        self._manager = _StoreManager(address=self.address, authkey=self.authkey)
        self._started = False

    @property
    def authkey_hex(self) -> str:
        """Hex form of the authkey (travels inside picklable configs)."""
        return self.authkey.hex()

    def start(self) -> "SharedStoreServer":
        self._manager.start()
        self._started = True
        return self

    def shutdown(self) -> None:
        if self._started:
            self._manager.shutdown()
            self._started = False
        if self._socket_dir is not None:
            import shutil

            shutil.rmtree(self._socket_dir, ignore_errors=True)
            self._socket_dir = None


class _SharedShard:
    """Per-shard write handle the batched pipeline targets directly."""

    def __init__(self, client: "SharedGraphStoreClient", index: int) -> None:
        self._client = client
        self.index = index

    def add_messages(self, messages: Sequence[Message]) -> int:
        return self._client._shard_add_messages(self.index, messages)


class SharedGraphStoreClient:
    """Store facade over a :class:`StoreHub` namespace.

    Drop-in for :class:`~repro.graphstore.store.GraphStore` /
    :class:`~repro.graphstore.sharded.ShardedGraphStore` on the tracker
    and pipeline surface.  Completion subscribers fire locally from
    the roots each write returns; telemetry counters the
    server accumulates for this namespace are merged into the local
    registry at :meth:`close`.
    """

    def __init__(
        self,
        address: str,
        authkey: bytes,
        namespace: str,
        num_shards: int = 1,
        registry: Optional[MetricsRegistry] = None,
        on_path_complete: Optional[Callable[[MessageUid], None]] = None,
        owned_server: Optional[SharedStoreServer] = None,
    ) -> None:
        if num_shards < 1:
            raise StoreBackendError(f"num_shards must be >= 1, got {num_shards}")
        self.namespace = namespace
        self.num_shards = int(num_shards)
        self.telemetry = registry if registry is not None else get_registry()
        self._owned_server = owned_server
        self._manager = _StoreManager(address=address, authkey=authkey)
        self._manager.connect()
        self._hub = self._manager.hub()
        self._hub.ensure(namespace, self.num_shards)
        self._path_complete_subscribers: List[Callable[[MessageUid], None]] = []
        if on_path_complete is not None:
            self._path_complete_subscribers.append(on_path_complete)
        self._closed = False
        self.shards = tuple(_SharedShard(self, i) for i in range(self.num_shards))

    # -- identity ----------------------------------------------------------------

    @property
    def backend_kind(self) -> str:
        return "shared"

    def shard_index_of(self, root: MessageUid) -> int:
        """The server store's routing, computed locally so the pipeline
        buffers per shard without a round trip per message."""
        return shard_of(root, self.num_shards)

    # -- subscriptions -----------------------------------------------------------

    def subscribe_path_complete(self, callback: Callable[[MessageUid], None]) -> None:
        self._path_complete_subscribers.append(callback)

    def _notify(self, roots: Sequence[MessageUid]) -> None:
        for root in roots:
            for callback in self._path_complete_subscribers:
                callback(root)

    # -- writes ------------------------------------------------------------------

    def add_message(self, message: Message) -> None:
        self._notify(self._hub.add_message(self.namespace, message))

    def add_messages(self, messages: Sequence[Message]) -> int:
        """One shard write per run of consecutive same-shard messages, so
        writes and completions keep the order of ``messages``."""
        runs = groupby(messages, key=lambda m: self.shard_index_of(m.root_uid or m.uid))
        return sum(self.shards[index].add_messages(list(run)) for index, run in runs)

    def _shard_add_messages(self, index: int, messages: Sequence[Message]) -> int:
        count, completed = self._hub.add_messages(self.namespace, index, list(messages))
        self._notify(completed)
        return count

    def add_edge(self, cause: MessageUid, effect: MessageUid) -> None:
        self._notify(self._hub.add_edge(self.namespace, cause, effect))

    # -- reads -------------------------------------------------------------------

    def contains(self, uid: MessageUid) -> bool:
        return self._hub.contains(self.namespace, uid)

    def get_node(self, uid: MessageUid):
        return self._hub.get_node(self.namespace, uid)

    def node_count(self) -> int:
        return self._hub.node_count(self.namespace)

    def root_of(self, uid: MessageUid) -> Optional[MessageUid]:
        return self._hub.root_of(self.namespace, uid)

    def successors(self, uid: MessageUid) -> Set[MessageUid]:
        return self._hub.successors(self.namespace, uid)

    def predecessors(self, uid: MessageUid) -> Set[MessageUid]:
        return self._hub.predecessors(self.namespace, uid)

    def iter_successors(self, uid: MessageUid) -> Iterator[MessageUid]:
        return iter(self.successors(uid))

    def iter_predecessors(self, uid: MessageUid) -> Iterator[MessageUid]:
        return iter(self.predecessors(uid))

    def all_uids(self) -> Iterable[MessageUid]:
        return self._hub.all_uids(self.namespace)

    def completed_signature(self, root: MessageUid):
        return self._hub.completed_signature(self.namespace, root)

    def graph_members(self, root: MessageUid) -> Tuple[MessageUid, ...]:
        return tuple(self._hub.graph_members(self.namespace, root))

    # -- maintenance -------------------------------------------------------------

    def evict_graph(self, root: MessageUid) -> int:
        return self._hub.evict_graph(self.namespace, root)

    def abandon_roots(self, roots: Iterable[MessageUid]) -> int:
        return self._hub.abandon_roots(self.namespace, list(roots))

    def repair_dangling_edges(self) -> int:
        return self._hub.repair_dangling_edges(self.namespace)

    # -- lifecycle ---------------------------------------------------------------

    def flush_journal(self) -> None:
        """Nothing to flush: the server's stores keep no journal."""

    def close(self) -> None:
        """Merge the namespace's server-side telemetry and disconnect.

        After the merge, this run's local registry carries the same
        non-volatile ``graphstore.*`` counters a memory-backend run
        would have accumulated in-process — the cross-backend digest
        contract.  Shuts the server down only when this client started
        it (standalone single-run use).
        """
        if self._closed:
            return
        self._closed = True
        self.telemetry.merge_snapshot(self._hub.snapshot(self.namespace))
        if self._owned_server is not None:
            self._owned_server.shutdown()
            self._owned_server = None
