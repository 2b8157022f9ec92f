"""Dapper/HTrace-style span tracing with temporal parenting (Section III).

A *span* covers the processing of one message at one component; spans
carry 128-bit-style trace ids and are parented by **temporal precedence**:
when a component emits a message, the span tracer attributes it to every
recent incoming span at that component, because without direct
control/data-flow knowledge it cannot tell which of several temporally
preceding messages actually caused the emission (the paper's Fig. 3:
``{msgA, msgB} ≺ msgC`` even though only ``msgA`` caused ``msgC``).

The false-positive mechanism is explicit and tunable:
``attribution_window_ms`` controls how far back "temporally preceding"
reaches; with concurrent requests in flight, cross-request attributions
appear at a rate that grows with load — exactly the imprecision that
"compounds over several hundred causal paths" (Section V-D).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError


@dataclass(frozen=True)
class SpanId:
    """Unique span identifier (deterministic stand-in for a 128-bit id)."""

    trace_root: int
    serial: int

    def __str__(self) -> str:
        return f"{self.trace_root:08x}:{self.serial:08x}"


@dataclass
class Span:
    """One unit of processing at one component.

    ``parents`` are the spans this span is *temporally* attributed to;
    ``true_parent`` records ground truth for precision/recall accounting
    (available in simulation, never used by the HTrace baseline's
    decisions).
    """

    span_id: SpanId
    component: str
    msg_type: str
    start_ms: float
    end_ms: float
    parents: Tuple[SpanId, ...] = ()
    true_parent: Optional[SpanId] = None


class TemporalSpanTracer:
    """Builds span trees using wall-clock temporal precedence.

    ``record_receive`` opens a span for an incoming message at a
    component; ``record_emit`` attributes an outgoing message to all
    spans at the component whose processing window overlaps the
    ``attribution_window_ms`` preceding the emission.
    """

    def __init__(self, attribution_window_ms: float = 50.0) -> None:
        if attribution_window_ms <= 0:
            raise ReproError(f"attribution_window_ms must be positive, got {attribution_window_ms}")
        self.attribution_window_ms = float(attribution_window_ms)
        self._serial = itertools.count(1)
        self.spans: Dict[SpanId, Span] = {}
        # component -> list of (span_id, start_ms, end_ms) recently active
        self._active: Dict[str, List[Tuple[SpanId, float, float]]] = {}

    def record_receive(
        self,
        component: str,
        msg_type: str,
        time_ms: float,
        duration_ms: float,
        trace_root: int,
    ) -> Span:
        """Open a span for a message received at ``component``."""
        span = Span(
            span_id=SpanId(trace_root, next(self._serial)),
            component=component,
            msg_type=msg_type,
            start_ms=time_ms,
            end_ms=time_ms + max(0.0, duration_ms),
        )
        self.spans[span.span_id] = span
        self._active.setdefault(component, []).append((span.span_id, span.start_ms, span.end_ms))
        self._gc(component, time_ms)
        return span

    def temporal_parents(self, component: str, emit_time_ms: float) -> List[SpanId]:
        """Spans temporally preceding an emission at ``component``.

        Every span whose window intersects
        ``[emit_time - attribution_window, emit_time]`` is a candidate
        parent — the tracer cannot do better without data-flow knowledge.
        """
        horizon = emit_time_ms - self.attribution_window_ms
        out: List[SpanId] = []
        for span_id, start, end in self._active.get(component, []):
            if start <= emit_time_ms and end >= horizon:
                out.append(span_id)
        return out

    def record_emit(
        self,
        component: str,
        msg_type: str,
        emit_time_ms: float,
        duration_ms: float,
        dest_component: str,
        trace_root: int,
        true_parent: Optional[SpanId] = None,
    ) -> Span:
        """Record an emission: a new span at the destination, temporally parented."""
        parents = tuple(self.temporal_parents(component, emit_time_ms))
        span = Span(
            span_id=SpanId(trace_root, next(self._serial)),
            component=dest_component,
            msg_type=msg_type,
            start_ms=emit_time_ms,
            end_ms=emit_time_ms + max(0.0, duration_ms),
            parents=parents,
            true_parent=true_parent,
        )
        self.spans[span.span_id] = span
        self._active.setdefault(dest_component, []).append((span.span_id, span.start_ms, span.end_ms))
        self._gc(dest_component, emit_time_ms)
        return span

    def _gc(self, component: str, now_ms: float) -> None:
        horizon = now_ms - 4 * self.attribution_window_ms
        active = self._active.get(component, [])
        self._active[component] = [(sid, s, e) for (sid, s, e) in active if e >= horizon]

    # -- precision accounting -----------------------------------------------------

    def attribution_precision(self) -> float:
        """Fraction of attributed parents that are true parents.

        1.0 means temporal causality matched direct causality exactly;
        values fall as concurrency rises (Fig. 3's scenario).  Spans with
        no recorded ground truth are skipped.
        """
        correct = 0
        attributed = 0
        for span in self.spans.values():
            if span.true_parent is None or not span.parents:
                continue
            attributed += len(span.parents)
            if span.true_parent in span.parents:
                correct += 1
        if attributed == 0:
            return 1.0
        return correct / attributed
