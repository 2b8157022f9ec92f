"""Temporal ("happens-before") causality: the vector clock, the span
tracer and the HTrace span-profile collector."""

from repro.tracing.clocks import VectorClock, VectorTimestamp
from repro.tracing.htrace import HTraceCollector
from repro.tracing.spans import Span, SpanId, TemporalSpanTracer

__all__ = [
    "HTraceCollector",
    "Span",
    "SpanId",
    "TemporalSpanTracer",
    "VectorClock",
    "VectorTimestamp",
]
