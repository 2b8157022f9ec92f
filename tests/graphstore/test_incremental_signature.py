"""Equivalence of incremental per-root signatures with BFS extraction.

The store accumulates each root's canonical edge-triple set and member
list online (see :mod:`repro.graphstore.store`); the tracker consumes
them instead of running :func:`causal_graph_bfs` per completion.  These
property-style tests generate randomized message graphs — fan-out /
fan-in, sampling gaps (causes that never materialise as nodes), shared
causes bridging two requests' graphs, and shuffled (out-of-order)
arrival — and assert the incremental state matches the BFS oracle
exactly:

* ``completed_signature(root)`` equals ``(root.msg_type, bfs.edges)``
  after canonical sorting, for every stored root;
* roots that were never stored yield ``None`` where BFS raises;
* ``evict_graph(root)`` removes exactly the nodes a forward
  reachability sweep from the root would remove, and nothing else.
"""

import random

import pytest

from repro.errors import GraphStoreError
from repro.graphstore.query import causal_graph_bfs
from repro.graphstore.store import GraphStore
from repro.lang.ir import CLIENT, EXTERNAL
from repro.lang.message import Message, MessageUid


def _reachable(store, root):
    """Every uid causally downstream of ``root``, itself included."""
    seen, stack = set(), [root]
    while stack:
        uid = stack.pop()
        if uid not in seen:
            seen.add(uid)
            stack.extend(store.iter_successors(uid))
    return seen


def _random_trace(rng, num_roots=6, max_nodes_per_root=14):
    """Generate (all_messages, stored_messages, roots).

    Each root grows a random DAG: every new message picks 1–3 causes from
    earlier messages of the same request (fan-in), occasionally borrowing
    a cause from a *different* request (shared cause → bridged graphs).
    Roughly 15% of non-root messages are dropped before storage (sampling
    gaps: their uids still appear as causes), and one root in six is
    dropped entirely (completion with no stored root).  Arrival order is
    shuffled so causes regularly arrive after their effects.
    """
    all_messages = []
    per_root = []
    seq = 1
    for r in range(num_roots):
        root = Message(MessageUid("h", 9, seq), f"req{r % 3}", EXTERNAL, f"C{r}")
        seq += 1
        own = [root]
        for i in range(rng.randrange(2, max_nodes_per_root)):
            pool = list(own)
            if per_root and rng.random() < 0.2:
                pool.extend(rng.choice(per_root))  # shared cause across requests
            causes = frozenset(m.uid for m in rng.sample(pool, k=min(len(pool), rng.randrange(1, 4))))
            dest = CLIENT if rng.random() < 0.2 else f"C{rng.randrange(num_roots)}"
            msg = Message(
                MessageUid("h", 9, seq),
                f"m{i % 5}",
                f"C{rng.randrange(num_roots)}",
                dest,
                cause_uids=causes,
                root_uid=root.uid,
            )
            seq += 1
            own.append(msg)
        per_root.append(own)
        all_messages.extend(own)
    roots = [own[0] for own in per_root]
    dropped_roots = {roots[i].uid for i in range(0, num_roots, 6)}
    stored = []
    for msg in all_messages:
        if msg.uid in dropped_roots:
            continue
        if msg.root_uid is not None and rng.random() < 0.15:
            continue  # sampling gap: uid survives only as a cause reference
        stored.append(msg)
    rng.shuffle(stored)
    return all_messages, stored, roots


@pytest.mark.parametrize("seed", range(25))
def test_incremental_signature_matches_bfs_oracle(seed):
    rng = random.Random(seed)
    _, stored, roots = _random_trace(rng)
    store = GraphStore()
    for msg in stored:
        store.add_message(msg)
    stored_uids = {m.uid for m in stored}
    for root in roots:
        if root.uid not in stored_uids:
            assert store.completed_signature(root.uid) is None
            with pytest.raises(GraphStoreError):
                causal_graph_bfs(store, root.uid)
            continue
        completed = store.completed_signature(root.uid)
        assert completed is not None
        request_type, edges = completed
        oracle = causal_graph_bfs(store, root.uid)
        assert request_type == root.msg_type
        assert tuple(sorted(set(edges))) == oracle.edges
        # Member list covers exactly the BFS-visited node set.
        present_members = {
            uid for uid in store.graph_members(root.uid) if store.get_node(uid) is not None
        }
        assert present_members == {node.uid for node in oracle.nodes}


@pytest.mark.parametrize("seed", range(25))
def test_member_eviction_matches_reachability_sweep(seed):
    rng = random.Random(seed + 1000)
    _, stored, roots = _random_trace(rng)
    store = GraphStore()
    for msg in stored:
        store.add_message(msg)
    stored_uids = {m.uid for m in stored}
    for root in roots:
        present_before = set(store.all_uids())
        expected = {
            uid for uid in _reachable(store, root.uid) if uid in present_before
        }
        removed = store.evict_graph(root.uid)
        present_after = set(store.all_uids())
        assert removed == len(expected)
        assert present_before - present_after == expected
        if root.uid in stored_uids:
            assert store.completed_signature(root.uid) is None
    # Whatever survives every eviction is exactly what no root can reach:
    # nodes downstream of a sampling gap (disconnected tails).
    for uid in store.all_uids():
        for root in roots:
            assert uid not in _reachable(store, root.uid) or uid == root.uid


def test_out_of_order_single_chain_signature():
    """Causes arriving strictly after their effects still converge."""
    store = GraphStore()
    root = Message(MessageUid("h", 9, 1), "req", EXTERNAL, "A")
    mid = Message(
        MessageUid("h", 9, 2), "m", "A", "B", cause_uids=frozenset({root.uid}), root_uid=root.uid
    )
    resp = Message(
        MessageUid("h", 9, 3), "done", "B", CLIENT, cause_uids=frozenset({mid.uid}), root_uid=root.uid
    )
    for msg in (resp, mid, root):  # fully reversed arrival
        store.add_message(msg)
    completed = store.completed_signature(root.uid)
    assert completed is not None
    request_type, edges = completed
    assert request_type == "req"
    assert sorted(set(edges)) == sorted(causal_graph_bfs(store, root.uid).edges)
    assert store.evict_graph(root.uid) == 3
    assert store.node_count() == 0


def test_readd_does_not_duplicate_members():
    """Re-observing a stored message must not grow the member list."""
    store = GraphStore()
    root = Message(MessageUid("h", 9, 1), "req", EXTERNAL, "A")
    child = Message(
        MessageUid("h", 9, 2), "m", "A", CLIENT, cause_uids=frozenset({root.uid}), root_uid=root.uid
    )
    store.add_message(root)
    store.add_message(child)
    store.add_message(child)
    store.add_message(root)
    assert sorted(store.graph_members(root.uid)) == sorted([root.uid, child.uid])
    assert store.evict_graph(root.uid) == 2
