"""Unit tests for BFS causal-graph extraction."""

import pytest

from repro.errors import GraphStoreError
from repro.graphstore.query import causal_graph_bfs
from repro.graphstore.store import GraphStore
from repro.lang.ir import CLIENT, EXTERNAL
from repro.lang.message import Message, MessageUid


def _uid(seq):
    return MessageUid("h", 1, seq)


def _diamond_store():
    """root → {left, right} → join → response."""
    store = GraphStore()
    root = Message(_uid(1), "req", EXTERNAL, "A")
    left = Message(_uid(2), "l", "A", "B", cause_uids=frozenset({root.uid}), root_uid=root.uid)
    right = Message(_uid(3), "r", "A", "C", cause_uids=frozenset({root.uid}), root_uid=root.uid)
    join = Message(
        _uid(4), "j", "B", "D", cause_uids=frozenset({left.uid, right.uid}), root_uid=root.uid
    )
    response = Message(
        _uid(5), "done", "D", CLIENT, cause_uids=frozenset({join.uid}), root_uid=root.uid
    )
    for m in (root, left, right, join, response):
        store.add_message(m)
    return store, root, (left, right, join, response)


class TestCausalGraphBfs:
    def test_visits_whole_graph(self):
        store, root, others = _diamond_store()
        result = causal_graph_bfs(store, root.uid)
        assert len(result.nodes) == 5
        assert result.complete

    def test_edges_are_canonical(self):
        store, root, _ = _diamond_store()
        result = causal_graph_bfs(store, root.uid)
        assert result.edges == tuple(sorted(set(result.edges)))
        assert (EXTERNAL, "req", "A") in result.edges
        assert ("D", "done", CLIENT) in result.edges

    def test_incomplete_without_response(self):
        store = GraphStore()
        root = Message(_uid(1), "req", EXTERNAL, "A")
        store.add_message(root)
        result = causal_graph_bfs(store, root.uid)
        assert not result.complete

    def test_missing_root_raises(self):
        store = GraphStore()
        with pytest.raises(GraphStoreError):
            causal_graph_bfs(store, _uid(404))

    def test_signature_matches_edges(self):
        store, root, _ = _diamond_store()
        result = causal_graph_bfs(store, root.uid)
        assert result.signature == result.edges

    def test_dangling_cause_skipped(self):
        """An edge whose effect node was never stored must not break BFS."""
        store = GraphStore()
        root = Message(_uid(1), "req", EXTERNAL, "A")
        store.add_message(root)
        store.add_edge(root.uid, _uid(77))  # effect node never stored
        result = causal_graph_bfs(store, root.uid)
        assert len(result.nodes) == 1
