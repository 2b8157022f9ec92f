"""Graph-store queries: BFS causal-graph extraction (Section IV-B).

A causal path is reconstructed "by initiating BFS starting with the
unique identifier of [the] message corresponding to the external user
request, until the node corresponding to the response from the
application is obtained"; each hop is an O(1) hash-index lookup, giving
O(|causal graph(M)|) total work.

Since the incremental-signature rework (see :mod:`repro.graphstore.store`)
this BFS is no longer on the completion hot path: the tracker reads
accumulated signatures in O(1).  It remains the query/debug API and the
oracle the equivalence tests compare the incremental signatures against.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import FrozenSet, List, Set, Tuple

from repro.errors import GraphStoreError
from repro.graphstore.store import EdgeTriple, GraphNode, GraphStore
from repro.lang.message import MessageUid

__all__ = [
    "CausalGraphResult",
    "EdgeTriple",
    "ancestors_of",
    "causal_graph_bfs",
    "reachable_set",
    "to_dot",
]


@dataclass(frozen=True)
class CausalGraphResult:
    """The causal graph induced by one external request.

    ``edges`` are canonical (sorted, deduplicated) component-level hops;
    ``nodes`` the message nodes visited in BFS order; ``complete`` whether
    a response node was reached.
    """

    root: MessageUid
    nodes: Tuple[GraphNode, ...]
    edges: Tuple[EdgeTriple, ...]
    complete: bool

    @property
    def signature(self) -> Tuple[EdgeTriple, ...]:
        """Canonical identity of the causal path (for path-profile counting)."""
        return self.edges


def causal_graph_bfs(store: GraphStore, root: MessageUid) -> CausalGraphResult:
    """Extract the causal graph rooted at external request ``root`` by BFS.

    Accepts a single :class:`GraphStore` or a
    :class:`~repro.graphstore.sharded.ShardedGraphStore`: root-sharding
    keeps each causal graph shard-local, so the BFS routes to the
    owning shard and never pays cross-shard probes per hop (it falls
    back to facade-wide fan-out reads only if the root was stored
    outside its home shard, e.g. via raw ``add_edge`` test setups).

    Raises :class:`~repro.errors.GraphStoreError` if the root node is not
    present in the store.
    """
    home = store.shards[store.shard_index_of(root)]
    if home.contains(root):
        store = home
    root_node = store.get_node(root)
    if root_node is None:
        raise GraphStoreError(f"causal-graph root {root} not found in store")
    visited: Set[MessageUid] = {root}
    order: List[GraphNode] = [root_node]
    edge_set: Set[EdgeTriple] = {(root_node.src, root_node.msg_type, root_node.dest)}
    complete = root_node.is_response
    hops = 0
    queue: deque = deque([root])
    while queue:
        uid = queue.popleft()
        for succ in sorted(store.iter_successors(uid)):
            hops += 1
            node = store.get_node(succ)
            if node is None:
                # The effect node was sampled away or not yet stored; the
                # edge alone carries no component information, skip it.
                continue
            edge_set.add((node.src, node.msg_type, node.dest))
            if node.is_response:
                complete = True
            if succ not in visited:
                visited.add(succ)
                order.append(node)
                queue.append(succ)
    # Instrument handles are created once per store (no get-or-create
    # registry lookup per extraction).
    store._m_bfs_extractions.inc()
    store._m_bfs_hops.inc(hops)
    store._m_extract_size.observe(len(order))
    return CausalGraphResult(
        root=root,
        nodes=tuple(order),
        edges=tuple(sorted(edge_set)),
        complete=complete,
    )


def reachable_set(store: GraphStore, root: MessageUid) -> FrozenSet[MessageUid]:
    """All message uids causally downstream of ``root`` (including it)."""
    visited: Set[MessageUid] = set()
    queue: deque = deque([root])
    while queue:
        uid = queue.popleft()
        if uid in visited:
            continue
        visited.add(uid)
        queue.extend(store.iter_successors(uid))
    return frozenset(visited)


def to_dot(store: GraphStore, root: MessageUid, title: str = "causal graph") -> str:
    """Render the causal graph rooted at ``root`` as Graphviz DOT.

    Handy for debugging and documentation: pipe the output through
    ``dot -Tsvg`` to visualise exactly which message instances caused
    which (the dashed-arrow diagrams of the paper's Figs. 1–2).
    """
    result = causal_graph_bfs(store, root)
    lines = [
        "digraph causal {",
        f'  label="{title}";',
        "  rankdir=LR;",
        "  node [shape=box, fontsize=10];",
    ]
    ids = {node.uid: f"n{i}" for i, node in enumerate(result.nodes)}
    for node in result.nodes:
        shape = ", style=bold" if node.is_response else ""
        lines.append(
            f'  {ids[node.uid]} [label="{node.msg_type}\\n{node.uid}"{shape}];'
        )
    for node in result.nodes:
        for succ in sorted(store.iter_successors(node.uid)):
            if succ in ids:
                lines.append(f"  {ids[node.uid]} -> {ids[succ]};")
    lines.append("}")
    return "\n".join(lines)


def ancestors_of(store: GraphStore, uid: MessageUid) -> FrozenSet[MessageUid]:
    """All message uids causally upstream of ``uid`` (excluding it)."""
    visited: Set[MessageUid] = set()
    queue: deque = deque(store.iter_predecessors(uid))
    while queue:
        current = queue.popleft()
        if current in visited:
            continue
        visited.add(current)
        queue.extend(store.iter_predecessors(current))
    return frozenset(visited)
