"""Outside-in tracer: one span per call into a layer's public methods.

The program caches bound methods at construction
(``DirectCausalityTracker._write = store.add_message``,
``GraphStore._journal_write = backend.journal_message``), so wrapping an
*instance* would miss the hot path.  The tracer therefore swaps the
function on the *class* before any simulator is built and restores it on
exit; that also covers ``__slots__`` classes.

Self time (span minus child spans) and call counts aggregate online per
layer.  Full span records are kept only for every
:data:`SPAN_SAMPLE_EVERY`-th ``run_interval`` subtree, in memory, and
written out by the caller when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
from time import perf_counter
from typing import Dict, List, Tuple

#: ``(layer, module, class, methods)``.  The layer is the module's name
#: under ``repro``; the profiler is split into its write and read side
#: because different workloads stress each.  Each method is wrapped on
#: the class that defines it, so an inherited method is timed once.
LAYER_SPECS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    ("workloads", "repro.workloads.generator", "WorkloadGenerator", ("arrivals",)),
    ("core.sampling", "repro.core.sampling", "RequestSampler", ("sample_count",)),
    ("sim.runtime", "repro.sim.runtime", "ApplicationRuntime", ("execute_request",)),
    (
        "core.causal_graph",
        "repro.core.causal_graph",
        "DirectCausalityTracker",
        ("observe_all", "advance_to", "drain_pipeline", "deliver_delayed"),
    ),
    (
        "graphstore.pipeline",
        "repro.graphstore.pipeline",
        "BatchedWritePipeline",
        ("submit", "tick", "flush"),
    ),
    (
        "graphstore.sharded",
        "repro.graphstore.sharded",
        "ShardedGraphStore",
        (
            "add_message", "add_messages", "completed_signature", "evict_graph",
            "abandon_roots", "repair_dangling_edges", "flush_journal", "recover",
            "close",
        ),
    ),
    (
        "graphstore.store",
        "repro.graphstore.store",
        "GraphStore",
        (
            "add_message", "add_messages", "completed_signature", "evict_graph",
            "abandon_root", "repair_dangling_edges", "flush_journal", "recover",
            "close",
        ),
    ),
    (
        "graphstore.backend",
        "repro.graphstore.backend",
        "LogBackend",
        (
            "__init__", "journal_message", "journal_edge", "journal_evict",
            "journal_abandon", "journal_repair", "flush", "close", "replay_into",
        ),
    ),
    ("profiling.profiler.record", "repro.profiling.profiler", "CausalPathProfiler", ("record",)),
    (
        "profiling.profiler.read",
        "repro.profiling.profiler",
        "CausalPathProfiler",
        ("counts", "counts_between", "sample_total_between", "component_weight_estimates"),
    ),
    (
        "core.elasticity",
        "repro.core.elasticity",
        "DCAElasticityManager",
        ("decide", "on_interval_end"),
    ),
    ("autoscale", "repro.autoscale.cloudwatch", "CloudWatchManager", ("decide", "on_interval_end")),
    ("autoscale", "repro.autoscale.elasticrmi", "ElasticRMIManager", ("decide",)),
    (
        "autoscale",
        "repro.autoscale.htrace_cw",
        "HTraceCloudWatchManager",
        ("decide", "on_interval_end"),
    ),
    (
        "autoscale",
        "repro.autoscale.manager",
        "ElasticityManager",
        ("record_decision", "on_interval_end"),
    ),
    ("tracing.htrace", "repro.tracing.htrace", "HTraceCollector", ("observe_interval",)),
    ("sim.cluster", "repro.sim.cluster", "Cluster", ("advance", "apply_targets", "fail_component")),
    ("sim.events", "repro.sim.events", "EventDrivenRunner", ("run",)),
    ("sim.events", "repro.sim.events", "ReplayIngestor", ("ingest",)),
    ("sim.engine", "repro.sim.engine", "ClusterSimulator", ("run", "run_interval")),
)

#: Layer names in stack order, each once.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(spec[0] for spec in LAYER_SPECS))

#: Keep full span records for one ``run_interval`` subtree in this many.
SPAN_SAMPLE_EVERY = 16

#: The method whose calls delimit the sampled subtrees.
_INTERVAL_ROOT = ("ClusterSimulator", "run_interval")


class Tracer:
    """Class-level method wrapper with online per-layer aggregation.

    Use as a context manager around building *and* running the units::

        with Tracer() as tracer:
            simulator = build_simulator(...)
            tracer.begin_unit(0)
            simulator.run()
    """

    def __init__(self) -> None:
        self._index = {layer: i for i, layer in enumerate(LAYERS)}
        self._self_s: List[float] = [0.0] * len(LAYERS)
        # Calls are counted per wrapped method; a layer's count is the sum.
        self._methods: List[Tuple[int, str]] = [
            (self._index[layer], f"{class_name}.{method}")
            for layer, _module, class_name, methods in LAYER_SPECS
            for method in methods
        ]
        self._calls: List[int] = [0] * len(self._methods)
        # One child-time accumulator per open span.
        self._stack: List[float] = []
        self._patched: List[Tuple[type, str, object]] = []
        #: Whether the current call is inside a sampled subtree.
        self.recording = False
        self.unit = 0
        self.interval = -1
        self._span_ids: List[int] = []
        self._next_span_id = 0
        #: ``(id, parent, layer, name, start, end, unit, interval)``.
        self.spans: List[tuple] = []

    # -- install / restore -------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer is already installed")
        slot = 0
        for _layer, module_name, class_name, methods in LAYER_SPECS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for method in methods:
                original = cls.__dict__[method]
                wrapped = self._wrap(
                    slot, original, interval_root=(class_name, method) == _INTERVAL_ROOT
                )
                setattr(cls, method, wrapped)
                self._patched.append((cls, method, original))
                slot += 1

    def uninstall(self) -> None:
        while self._patched:
            cls, method, original = self._patched.pop()
            setattr(cls, method, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- per-unit / per-round state ----------------------------------------------

    def begin_unit(self, unit: int) -> None:
        """Stamp following spans with ``unit`` and restart its interval count."""
        self.unit = unit
        self.interval = -1

    def reset(self) -> None:
        """Zero the aggregates and drop recorded spans (between rounds)."""
        self._self_s[:] = [0.0] * len(LAYERS)
        self._calls[:] = [0] * len(self._methods)
        del self._stack[:]
        del self._span_ids[:]
        self.spans = []
        self.recording = False

    def self_seconds(self) -> Dict[str, float]:
        return dict(zip(LAYERS, self._self_s))

    def method_calls(self) -> Dict[str, int]:
        """Calls per wrapped method, keyed ``Class.method``."""
        return {name: count for (_layer, name), count in zip(self._methods, self._calls)}

    def calls(self) -> Dict[str, int]:
        totals = [0] * len(LAYERS)
        for (layer, _name), count in zip(self._methods, self._calls):
            totals[layer] += count
        return dict(zip(LAYERS, totals))

    # -- the wrapper -------------------------------------------------------------

    def _wrap(self, slot: int, fn, interval_root: bool):
        layer, name = self._methods[slot]
        tracer = self
        stack = self._stack
        self_s = self._self_s
        calls = self._calls
        span_ids = self._span_ids
        clock = perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if interval_root:
                tracer.interval += 1
                tracer.recording = tracer.interval % SPAN_SAMPLE_EVERY == 0
            recording = tracer.recording
            if recording:
                span_id = tracer._next_span_id
                tracer._next_span_id = span_id + 1
                parent = span_ids[-1] if span_ids else None
                span_ids.append(span_id)
            calls[slot] += 1
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                self_s[layer] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
                if recording:
                    span_ids.pop()
                    tracer.spans.append(
                        (span_id, parent, LAYERS[layer], name, start, end,
                         tracer.unit, tracer.interval)
                    )
                    if interval_root:
                        tracer.recording = False

        return traced


def write_spans(spans: List[tuple], path: str) -> None:
    """Write sampled spans as JSON lines, times relative to the first span."""
    origin = min((span[4] for span in spans), default=0.0)
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, parent, layer, name, start, end, unit, interval in spans:
            record = {
                "id": span_id,
                "parent": parent,
                "layer": layer,
                "name": name,
                "start_s": start - origin,
                "end_s": end - origin,
                "unit": unit,
                "interval": interval,
            }
            fh.write(json.dumps(record) + "\n")
