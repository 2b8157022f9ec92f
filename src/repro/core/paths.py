"""Static enumeration of causal paths and the path-signature model.

The paper statically analyses the application to construct the
architectural graph and "statically identif[ies] all possible causal
paths in the application", seeding the profiler with zero counts
(Section IV-B).  A *causal path* induced by one external request is in
general a tree (fan-out, e.g. ``S1 → {S2, S3, S4}`` in Fig. 1), so we
canonicalise it as the sorted set of component-level hops
``(src, msg_type, dest)`` — the same canonical form
:func:`repro.graphstore.query.causal_graph_bfs` produces dynamically,
which is what lets the profiler match observed graphs to static paths.

Enumeration walks each handler body, treating each ``If`` as a choice
point and each ``While`` as executing zero or one time (a sound
abstraction for path *identity*: re-executions add no new hop triples to
the canonical edge set).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Sequence, Set, Tuple

from repro.errors import AnalysisError
from repro.graphstore.query import EdgeTriple
from repro.lang.ir import CLIENT, EXTERNAL, Application, Handler, If, Send, Stmt, While

#: A single emission option of a handler: the (msg_type, dest) pairs sent
#: on one execution path through the handler body.
EmissionSet = Tuple[Tuple[str, str], ...]

#: Bounds on static enumeration, each a sign the app model is too branchy
#: (or cyclic) to enumerate: distinct emission variants per handler,
#: signatures per request type, hops per path, and re-expansions of one
#: ``(component, msg_type)`` pair per path.
MAX_EMISSION_VARIANTS = 256
MAX_PATHS_PER_REQUEST = 4096
MAX_HOPS = 512
MAX_REPEATS = 2


@dataclass(frozen=True)
class PathSignature:
    """Canonical identity of a causal path.

    ``edges`` is the sorted tuple of unique ``(src, msg_type, dest)``
    hops, including the external-request edge (src = ``EXTERNAL``) and any
    client-response edges (dest = ``CLIENT``).
    """

    request_type: str
    edges: Tuple[EdgeTriple, ...]

    @cached_property
    def path_id(self) -> str:
        """Stable short identifier (for reports and registry keys).

        Computed once per instance — profiler recording reads it on every
        path completion, and the sha1 is pure function of the (frozen)
        fields.
        """
        digest = hashlib.sha1(repr((self.request_type, self.edges)).encode("utf-8")).hexdigest()
        return f"{self.request_type}:{digest[:10]}"

    @property
    def components(self) -> FrozenSet[str]:
        """Application components appearing on this path."""
        names: Set[str] = set()
        for src, _, dest in self.edges:
            if src not in (EXTERNAL, CLIENT):
                names.add(src)
            if dest not in (EXTERNAL, CLIENT):
                names.add(dest)
        return frozenset(names)

    @property
    def length(self) -> int:
        return len(self.edges)

    def describe(self) -> str:
        """Human-readable rendering, e.g. for example scripts."""
        hops = ", ".join(f"{s}--{m}-->{d}" for s, m, d in self.edges)
        return f"{self.request_type}: [{hops}]"


def handler_emission_sets(handler: Handler) -> List[EmissionSet]:
    """All emission variants of ``handler`` (one per execution path shape).

    Deduplicated and deterministically ordered.  Raises
    :class:`~repro.errors.AnalysisError` if the handler has more than
    :data:`MAX_EMISSION_VARIANTS` distinct variants.
    """
    variants = _block_variants(handler.body)
    unique = sorted(set(variants))
    if len(unique) > MAX_EMISSION_VARIANTS:
        raise AnalysisError(
            f"handler for {handler.msg_type!r} has {len(unique)} emission variants "
            f"(max {MAX_EMISSION_VARIANTS})"
        )
    return unique


def _block_variants(block: Sequence[Stmt]) -> List[EmissionSet]:
    variants: List[EmissionSet] = [()]
    for stmt in block:
        stmt_variants = _stmt_variants(stmt)
        merged: List[EmissionSet] = []
        for prefix in variants:
            for option in stmt_variants:
                merged.append(prefix + option)
                if len(merged) > MAX_EMISSION_VARIANTS * 4:
                    raise AnalysisError(
                        "emission-variant explosion while enumerating block "
                        f"(limit {MAX_EMISSION_VARIANTS})"
                    )
        # Dedup eagerly to keep the working set small.
        variants = sorted(set(merged))
    return variants


def _stmt_variants(stmt: Stmt) -> List[EmissionSet]:
    if isinstance(stmt, Send):
        return [((stmt.msg_type, stmt.dest),)]
    if isinstance(stmt, If):
        then_v = _block_variants(stmt.then_body)
        else_v = _block_variants(stmt.else_body)
        return sorted(set(then_v) | set(else_v))
    if isinstance(stmt, While):
        body_v = _block_variants(stmt.body)
        # Zero or one execution: additional iterations repeat hop triples,
        # which the canonical (set-based) signature already contains.
        return sorted(set(body_v) | {()})
    return [()]


def enumerate_causal_paths(app: Application) -> Dict[str, List[PathSignature]]:
    """Statically enumerate the causal paths of every external request type.

    Returns request type → sorted list of :class:`PathSignature`.  The
    walk bounds re-expansion of the same ``(component, msg_type)`` pair to
    :data:`MAX_REPEATS` per path so that architectures with message cycles
    (retries, heartbeats) terminate; beyond the bound the repeated hops
    add no new edges to the canonical signature.
    """
    emission_cache: Dict[Tuple[str, str], List[EmissionSet]] = {}

    def emissions(component: str, msg_type: str) -> List[EmissionSet]:
        key = (component, msg_type)
        if key not in emission_cache:
            handler = app.component(component).handler_for(msg_type)
            emission_cache[key] = handler_emission_sets(handler)
        return emission_cache[key]

    result: Dict[str, List[PathSignature]] = {}
    for req_type in sorted(app.entry_points):
        entry = app.entry_points[req_type]
        signatures: Set[Tuple[EdgeTriple, ...]] = set()
        initial_edge: EdgeTriple = (EXTERNAL, req_type, entry)
        _walk_paths(
            app,
            emissions,
            frontier=[(entry, req_type)],
            edges={initial_edge},
            signatures=signatures,
            expansions={},
            hops_left=MAX_HOPS,
        )
        result[req_type] = sorted(
            (PathSignature(req_type, tuple(sorted(sig))) for sig in signatures),
            key=lambda p: p.edges,
        )
        if not result[req_type]:
            raise AnalysisError(f"no causal paths enumerated for request type {req_type!r}")
    return result


def _walk_paths(
    app: Application,
    emissions,
    frontier: List[Tuple[str, str]],
    edges: Set[EdgeTriple],
    signatures: Set[Tuple[EdgeTriple, ...]],
    expansions: Dict[Tuple[str, str], int],
    hops_left: int,
) -> None:
    if len(signatures) >= MAX_PATHS_PER_REQUEST:
        return
    if not frontier or hops_left <= 0:
        signatures.add(tuple(sorted(edges)))
        return
    (component, msg_type), rest = frontier[0], frontier[1:]
    key = (component, msg_type)
    count = expansions.get(key, 0)
    if count >= MAX_REPEATS:
        # Bounded re-expansion: drop this message, continue with the rest.
        _walk_paths(app, emissions, rest, edges, signatures, expansions, hops_left - 1)
        return
    expansions[key] = count + 1
    for option in emissions(component, msg_type):
        new_edges = set(edges)
        new_frontier = list(rest)
        for out_type, dest in option:
            new_edges.add((component, out_type, dest))
            if dest != CLIENT:
                new_frontier.append((dest, out_type))
        _walk_paths(
            app,
            emissions,
            new_frontier,
            new_edges,
            signatures,
            expansions,
            hops_left - 1,
        )
    expansions[key] = count


def signature_from_edges(request_type: str, edges: Iterable[EdgeTriple]) -> PathSignature:
    """Build a canonical :class:`PathSignature` from observed edges."""
    return PathSignature(request_type, tuple(sorted(set(edges))))
