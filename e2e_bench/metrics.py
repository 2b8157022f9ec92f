"""Metric names, units, directions and bounds: the benchmark's contract.

``BENCHMARK.json`` at the repo root is :func:`manifest` written out
(``python -m e2e_bench manifest``); a test keeps the two equal.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from e2e_bench.trace import LAYERS

#: ``(name, unit, better, bound)``: what a user of the reproduction sees.
#: ``bound`` is the share of the parent's median a metric may worsen by.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("sim_minutes_per_s", "min/s", "higher", 0.25),
    ("messages_per_s", "msg/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: Exact-per-seed outcome ratios.  The issue listed these two as
#: end-to-end metrics; they are zero by design on most workloads and the
#: driver's end-to-end metrics may never be zero, so they report here.
RATIOS: Tuple[Tuple[str, str, str], ...] = (
    ("failed_share", "ratio", "lower"),
    ("journal_bytes_per_msg", "bytes", "lower"),
)

#: ``(name, better)`` work counts, unit ``count``, exact per seed.
WORK_COUNTS: Tuple[Tuple[str, str], ...] = (
    ("sim.engine.intervals", "higher"),
    ("sim.engine.external_requests", "higher"),
    ("sim.engine.sampled_requests", "higher"),
    ("sim.events.live_executions", "lower"),
    ("sim.events.replayed_executions", "higher"),
    ("sim.events.cutover_minute", "lower"),
    ("sim.events.events_processed", "lower"),
    ("core.causal_graph.messages_observed", "higher"),
    ("core.causal_graph.paths_completed", "higher"),
    ("core.causal_graph.paths_abandoned", "lower"),
    ("core.causal_graph.dead_letters", "lower"),
    ("core.causal_graph.store_write_retries", "lower"),
    ("core.causal_graph.profiler_records_lost", "lower"),
    ("core.causal_graph.delayed_messages_delivered", "higher"),
    ("graphstore.store.nodes_added", "higher"),
    ("graphstore.store.edges_added", "higher"),
    ("graphstore.store.evictions", "higher"),
    ("graphstore.store.dangling_edges_repaired", "higher"),
    ("graphstore.pipeline.write_batches", "lower"),
    ("graphstore.pipeline.batched_writes", "higher"),
    ("graphstore.pipeline.mean_batch_size", "higher"),
    ("graphstore.backend.records", "higher"),
    ("graphstore.backend.bytes", "lower"),
    ("graphstore.backend.flushes", "lower"),
    ("graphstore.backend.fsyncs", "lower"),
    ("graphstore.backend.rotations", "lower"),
    ("graphstore.backend.replayed_ops", "higher"),
    ("profiling.profiler.recordings", "higher"),
    ("core.elasticity.scale_up_events", "lower"),
    ("core.elasticity.scale_down_events", "lower"),
)

#: ``(name, unit, better)``: simulated statistics and the harness itself.
#: ``result_digest`` is the first 48 bits of a sha256 over every unit's
#: telemetry digest, agility and SLA figure: it has no better direction,
#: it only has to stay the same when a change claims to alter no result.
OTHER: Tuple[Tuple[str, str, str], ...] = (
    ("evalx.agility_mean", "nodes", "lower"),
    ("evalx.sla_violation_pct", "%", "lower"),
    ("result_digest", "hash48", "lower"),
    ("harness.units", "count", "higher"),
    ("harness.wall_s", "s", "lower"),
    ("harness.traced_wall_s", "s", "lower"),
    ("harness.trace_overhead", "ratio", "lower"),
    ("harness.layer_sum_ratio", "ratio", "higher"),
)


def per_layer() -> List[Dict[str, str]]:
    entries: List[Dict[str, str]] = []
    for layer in LAYERS:
        entries.append({"name": f"{layer}.self_s", "unit": "s", "better": "lower"})
        entries.append({"name": f"{layer}.calls", "unit": "count", "better": "lower"})
    for name, better in WORK_COUNTS:
        entries.append({"name": name, "unit": "count", "better": better})
    for name, unit, better in RATIOS + OTHER:
        entries.append({"name": name, "unit": unit, "better": better})
    return entries


#: Unit of every metric, by name.
UNITS: Dict[str, str] = {name: unit for name, unit, _better, _bound in END_TO_END}
UNITS.update((entry["name"], entry["unit"]) for entry in per_layer())


#: How long one run measures.  The driver's 136 runs must fit in 3420 s
#: with their set-up probes and output checks (3-6 s a run on top).
RUN_SECONDS = 15


def manifest() -> Dict[str, object]:
    """The contents of ``BENCHMARK.json``."""
    from e2e_bench.workloads import WORKLOADS

    return {
        "command": ["python3", "-m", "e2e_bench", "measure"],
        "paths": ["e2e_bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": cls.name, "why": cls.why} for cls in WORKLOADS.values()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": per_layer(),
    }
