"""Unit tests for the causal-graph store and its root routing."""

import os
import subprocess
import sys

import pytest

from repro.errors import GraphStoreError
from repro.graphstore.backend import GraphStoreBackend
from repro.graphstore.sharded import ShardedGraphStore, shard_of
from repro.graphstore.store import GraphStore
from repro.lang.ir import CLIENT, EXTERNAL
from repro.lang.message import Message, MessageUid
from repro.telemetry import MetricsRegistry


def _uid(seq, proc=1, host="h"):
    return MessageUid(host, proc, seq)


def _msg(seq, msg_type="m", src="A", dest="B", causes=(), root=None):
    return Message(
        uid=_uid(seq),
        msg_type=msg_type,
        src=src,
        dest=dest,
        cause_uids=frozenset(causes),
        root_uid=root,
    )


class TestPartitioner:
    """The one root -> shard routing rule (``shard_of``)."""

    def test_deterministic(self):
        uid = _uid(42)
        assert shard_of(uid, 8) == shard_of(MessageUid("h", 1, 42), 8)
        assert ShardedGraphStore(8).shard_index_of(uid) == shard_of(uid, 8)

    def test_in_range(self):
        for seq in range(100):
            assert 0 <= shard_of(_uid(seq), 5) < 5

    def test_spread(self):
        parts = {shard_of(_uid(seq), 4) for seq in range(200)}
        assert parts == {0, 1, 2, 3}

    def test_invalid_count(self):
        for count in (0, -1):
            with pytest.raises(GraphStoreError):
                ShardedGraphStore(count)


class TestGraphStore:
    def test_add_and_get(self):
        store = GraphStore()
        msg = _msg(1)
        node = store.add_message(msg)
        assert store.get_node(msg.uid) == node
        assert store.node_count() == 1

    def test_get_unknown_returns_none(self):
        store = GraphStore()
        assert store.get_node(_uid(99)) is None

    def test_edges_from_causes(self):
        registry = MetricsRegistry()
        store = GraphStore(registry=registry)
        root = _msg(1, src=EXTERNAL, dest="A")
        child = _msg(2, src="A", dest="B", causes=[root.uid], root=root.uid)
        store.add_message(root)
        store.add_message(child)
        assert store.successors(root.uid) == {child.uid}
        assert store.predecessors(child.uid) == {root.uid}
        assert registry.counter("graphstore.edges_added").value == 1

    def test_self_edge_rejected(self):
        store = GraphStore()
        with pytest.raises(GraphStoreError):
            store.add_edge(_uid(1), _uid(1))

    def test_root_tracking(self):
        store = GraphStore()
        root = _msg(1, src=EXTERNAL, dest="A")
        child = _msg(2, causes=[root.uid], root=root.uid)
        store.add_message(root)
        store.add_message(child)
        # Both are recorded against the root, so abandoning it takes both.
        assert store.abandon_root(root.uid) == 2
        assert store.node_count() == 0

    def test_completion_callback_on_response(self):
        seen = []
        store = GraphStore()
        store.subscribe_path_complete(seen.append)
        root = _msg(1, src=EXTERNAL, dest="A")
        response = _msg(2, src="A", dest=CLIENT, causes=[root.uid], root=root.uid)
        store.add_message(root)
        assert seen == []
        store.add_message(response)
        assert seen == [root.uid]

    def test_evict_graph(self):
        store = GraphStore()
        root = _msg(1, src=EXTERNAL, dest="A")
        mid = _msg(2, src="A", dest="B", causes=[root.uid], root=root.uid)
        leaf = _msg(3, src="B", dest=CLIENT, causes=[mid.uid], root=root.uid)
        for m in (root, mid, leaf):
            store.add_message(m)
        removed = store.evict_graph(root.uid)
        assert removed == 3
        assert store.node_count() == 0
        assert store.successors(root.uid) == set()

    def test_evict_leaves_other_graphs(self):
        store = GraphStore()
        a = _msg(1, src=EXTERNAL, dest="A")
        b = _msg(10, src=EXTERNAL, dest="A")
        store.add_message(a)
        store.add_message(b)
        store.evict_graph(a.uid)
        assert store.get_node(b.uid) is not None

    def test_index_lookup_counter(self):
        registry = MetricsRegistry()
        store = GraphStore(registry=registry)
        msg = _msg(1)
        store.add_message(msg)
        lookups = registry.counter("graphstore.index_lookups")
        before = lookups.value
        store.get_node(msg.uid)
        assert lookups.value == before + 1

    def test_subscribe_path_complete_multiple_subscribers_in_order(self):
        calls = []
        store = GraphStore()
        store.subscribe_path_complete(lambda root: calls.append(("first", root)))
        store.subscribe_path_complete(lambda root: calls.append(("second", root)))
        root = _msg(1, src=EXTERNAL, dest="A")
        response = _msg(2, src="A", dest=CLIENT, causes=[root.uid], root=root.uid)
        store.add_message(root)
        store.add_message(response)
        assert calls == [("first", root.uid), ("second", root.uid)]


class TestEvictGraphEdgeCases:
    def test_evict_follows_shared_cause_into_open_graph(self):
        """Eviction is reachability-based: a node of a still-open graph whose
        *only* link is a cause inside the evicted graph is swept too, but the
        open graph's root and its other descendants survive with clean edges."""
        store = GraphStore()
        root_a = _msg(1, src=EXTERNAL, dest="A")
        shared = _msg(2, src="A", dest="B", causes=[root_a.uid], root=root_a.uid)
        root_b = _msg(10, src=EXTERNAL, dest="A")
        bridged = _msg(
            11, src="A", dest="B", causes=[root_b.uid, shared.uid], root=root_b.uid
        )
        b_only = _msg(12, src="A", dest="B", causes=[root_b.uid], root=root_b.uid)
        for m in (root_a, shared, root_b, bridged, b_only):
            store.add_message(m)

        removed = store.evict_graph(root_a.uid)

        # root_a, shared, and the bridged node (reachable via the shared cause).
        assert removed == 3
        assert store.get_node(root_b.uid) is not None
        assert store.get_node(b_only.uid) is not None
        assert store.node_count() == 2
        # root_b no longer has a dangling out-edge to the swept bridged node.
        assert store.successors(root_b.uid) == {b_only.uid}

    def test_evict_with_sampled_away_cause_uid(self):
        """A cause uid dropped by sampling never materialises as a node; the
        recorded edge must not inflate the removal count and must be cleaned."""
        store = GraphStore()
        phantom = _uid(99)
        root = _msg(1, src=EXTERNAL, dest="A")
        child = _msg(2, src="A", dest="B", causes=[root.uid, phantom], root=root.uid)
        store.add_message(root)
        store.add_message(child)
        assert store.successors(phantom) == {child.uid}

        removed = store.evict_graph(root.uid)

        assert removed == 2  # phantom never existed, only real nodes counted
        assert store.node_count() == 0
        assert store.successors(phantom) == set()

    def test_double_eviction_is_idempotent(self):
        store = GraphStore()
        root = _msg(1, src=EXTERNAL, dest="A")
        leaf = _msg(2, src="A", dest=CLIENT, causes=[root.uid], root=root.uid)
        store.add_message(root)
        store.add_message(leaf)
        assert store.evict_graph(root.uid) == 2
        assert store.evict_graph(root.uid) == 0
        assert store.node_count() == 0

    def test_evict_unknown_root_removes_nothing(self):
        store = GraphStore()
        store.add_message(_msg(1))
        assert store.evict_graph(_uid(77)) == 0
        assert store.node_count() == 1


class _RecordingBackend(GraphStoreBackend):
    """Journaling backend that only remembers the frames it was handed."""

    kind = "recording"
    journaling = True

    def __init__(self):
        self.frames = []

    def journal_message(self, message):
        pass

    def journal_abandon(self, root):
        self.frames.append(("abandon", root))

    def flush(self):
        self.frames.append(("flush",))


class TestAbandonRoots:
    """The one-pass sweep is the per-root loop, observably."""

    @staticmethod
    def _orphaned_store(sharded=False):
        # Six roots whose request message was lost: their descendants are
        # stored against the root in the side index, nothing connects them.
        registry = MetricsRegistry()
        backend = _RecordingBackend()
        if sharded:
            store = ShardedGraphStore(num_shards=3, registry=registry)
        else:
            store = GraphStore(registry=registry, backend=backend)
        roots = [_uid(1000 + i, host="client") for i in range(6)]
        seq = 0
        for index, root in enumerate(roots):
            for _ in range(index + 1):
                seq += 1
                store.add_message(_msg(seq, causes=[root], root=root))
        return store, registry, backend, roots

    @staticmethod
    def _eviction_telemetry(registry):
        snap = registry.snapshot()["metrics"]
        return (
            snap["graphstore.evictions"]["value"],
            snap["graphstore.evicted_nodes"]["value"],
            snap["graphstore.eviction_size_nodes"]["count"],
        )

    @pytest.mark.parametrize("sharded", [False, True])
    def test_matches_the_per_root_loop(self, sharded):
        looped, looped_reg, looped_backend, roots = self._orphaned_store(sharded)
        swept, swept_reg, swept_backend, _ = self._orphaned_store(sharded)
        doomed = [roots[4], roots[1], roots[3]]
        assert swept.abandon_roots(doomed) == sum(looped.abandon_roots([r]) for r in doomed) == 11
        assert sorted(swept.all_uids()) == sorted(looped.all_uids())
        assert swept.node_count() == 1 + 3 + 6
        assert self._eviction_telemetry(swept_reg) == self._eviction_telemetry(looped_reg)
        assert self._eviction_telemetry(swept_reg) == (3, 11, 3)
        # One abandon frame + one flush per root, in input order.
        assert swept_backend.frames == looped_backend.frames
        if not sharded:
            assert swept_backend.frames == [
                step for root in doomed for step in (("abandon", root), ("flush",))
            ]

    def test_unknown_and_repeated_roots_tick_but_remove_nothing(self):
        store, registry, backend, roots = self._orphaned_store()
        stranger = _uid(7, host="nobody")
        assert store.abandon_roots([roots[2], stranger, roots[2]]) == 3
        assert self._eviction_telemetry(registry) == (3, 3, 3)
        assert [frame[1] for frame in backend.frames if frame[0] == "abandon"] == [
            roots[2], stranger, roots[2]
        ]
        assert store.abandon_roots([]) == 0
        assert self._eviction_telemetry(registry) == (3, 3, 3)

    def test_sweep_drops_the_roots_accumulators(self):
        store = GraphStore(registry=MetricsRegistry())
        root = store.add_message(_msg(1, src=EXTERNAL)).uid
        store.add_message(_msg(2, causes=[root], root=root))
        assert store.completed_signature(root) is not None
        assert store.abandon_roots([root]) == 2
        assert store.completed_signature(root) is None
        assert store.node_count() == 0

    def test_abandoned_root_leaves_nothing_behind_a_bridged_survivor(self):
        """A survivor bridged into an abandoned graph still carries that root in
        its reach set; what it causes later must not resurrect state for it."""
        store = GraphStore(registry=MetricsRegistry())
        a = _msg(1, "reqA", src=EXTERNAL, dest="A")
        b = _msg(2, "reqB", src=EXTERNAL, dest="A")
        a1 = _msg(3, "stepA", src="A", dest="B", causes=[a.uid], root=a.uid)
        x = _msg(4, "bridge", src="B", dest="C", causes=[b.uid, a1.uid], root=b.uid)
        for m in (a, b, a1, x):
            store.add_message(m)
        assert store.graph_members(a.uid) == (a.uid, a1.uid, x.uid)

        assert store.abandon_roots([a.uid]) == 2
        y = _msg(5, "reply", src="C", dest=CLIENT, causes=[x.uid], root=b.uid)
        store.add_message(y)

        assert store.graph_members(a.uid) == ()
        assert store.completed_signature(a.uid) is None
        assert store.completed_signature(b.uid) == (
            "reqB",
            ((EXTERNAL, "reqB", "A"), ("B", "bridge", "C"), ("C", "reply", CLIENT)),
        )
        assert store.evict_graph(b.uid) == 3
        assert store.node_count() == 0
        assert not store._index


_FAN_OUT_SCRIPT = """
import random
from repro.graphstore.store import GraphStore
from repro.lang.ir import CLIENT, EXTERNAL
from repro.lang.message import Message, MessageUid
from repro.telemetry import MetricsRegistry

store = GraphStore(registry=MetricsRegistry())
root = MessageUid("client.external", 0, 1)
mid = MessageUid("10.0.0.1", 1, 1)
# Eight children of ``mid`` and a grandchild each, all stored before
# ``mid`` and the root: connecting them is one cascade through mid's
# successors, so its order is the adjacency's iteration order.
stream = []
for i in range(8):
    child = MessageUid(f"10.0.{i}.2", i + 2, 1)
    stream.append(Message(child, f"c{i}", "M", f"W{i}", cause_uids=frozenset({mid}), root_uid=root))
    stream.append(Message(MessageUid(f"10.0.{i}.3", i + 2, 2), f"g{i}", f"W{i}", CLIENT,
                          cause_uids=frozenset({child}), root_uid=root))
random.Random(11).shuffle(stream)
stream.append(Message(mid, "fan", "F", "M", cause_uids=frozenset({root}), root_uid=root))
stream.append(Message(root, "req", EXTERNAL, "F"))
for message in stream:
    store.add_message(message)
members = store.graph_members(root)
assert len(members) == 18, len(members)
print([str(uid) for uid in members])
print(store.completed_signature(root))
"""


def test_member_and_hop_order_do_not_depend_on_the_hash_seed():
    """An out-of-order fan-out connects in arrival order in every process
    (string hashes — hence uid hashes — are salted by PYTHONHASHSEED)."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    outputs = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=os.path.abspath(src))
        done = subprocess.run(
            [sys.executable, "-c", _FAN_OUT_SCRIPT],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count("10.0.") == 17
