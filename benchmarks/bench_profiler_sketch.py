"""Profiler read-cost gate: running window totals vs the full-window walk.

Synthetic Zipf traffic over 12k causal paths (the "million-path" regime
scaled to CI budgets) drives the gated claim: the ``exact`` tier's
``counts()`` (running window totals) is ≥2x a full-window
``counts_between(now - window, now)``, which walks every minute table —
measured ~7x — and the two agree cell for cell.

The wall time lands in ``BENCH_profiler_sketch.json`` as a report;
only the ratio above is asserted.
"""

import time

import numpy as np

from benchmarks.conftest import run_once
from repro.core.paths import signature_from_edges
from repro.evalx.reporting import format_table
from repro.lang.ir import CLIENT, EXTERNAL
from repro.profiling.profiler import CausalPathProfiler
from repro.telemetry import MetricsRegistry

N_PATHS = 12_000
N_RECORDS = 240_000
ZIPF_EXPONENT = 1.05
STREAM_MINUTES = 90.0
SEED = 7
READS = 10

MIN_EXACT_SPEEDUP = 2.0


def _make_paths(n):
    return [
        signature_from_edges(
            f"rt{i % 40}",
            ((EXTERNAL, f"rt{i % 40}", "A"), ("A", f"m{i}", "B"), ("B", "done", CLIENT)),
        )
        for i in range(n)
    ]


def _zipf_draws(n_paths, n_records, seed):
    ranks = np.arange(1, n_paths + 1, dtype=float)
    p = 1.0 / ranks**ZIPF_EXPONENT
    p /= p.sum()
    rng = np.random.default_rng(seed)
    return rng.choice(n_paths, size=n_records, p=p)


def _build(n_paths, n_records):
    paths = _make_paths(n_paths)
    by_request = {}
    for sig in paths:
        by_request.setdefault(sig.request_type, []).append(sig)
    profiler = CausalPathProfiler(
        by_request,
        window_minutes=60.0,
        registry=MetricsRegistry(),
    )
    for i, idx in enumerate(_zipf_draws(n_paths, n_records, SEED)):
        profiler.record(paths[int(idx)], STREAM_MINUTES * i / n_records)
    return profiler


def _read_seconds(fn, now):
    start = time.perf_counter()
    for _ in range(READS):
        out = fn(now)
    return (time.perf_counter() - start) / READS, out


def test_bench_counts_read_throughput(benchmark):
    """Exact running totals vs the full-window walk."""

    def measure():
        exact = _build(N_PATHS, N_RECORDS)
        now = STREAM_MINUTES
        exact_seconds, optimised = _read_seconds(exact.counts, now)
        scan_seconds, reference = _read_seconds(
            lambda end: exact.counts_between(end - exact.window_minutes, end), now
        )
        assert optimised == reference, "running totals diverged from the full-window walk"
        return {"scan_seconds": scan_seconds, "exact_seconds": exact_seconds}

    out = run_once(benchmark, measure)

    exact_speedup = out["scan_seconds"] / out["exact_seconds"]
    benchmark.extra_info["paths"] = N_PATHS
    benchmark.extra_info["records"] = N_RECORDS
    benchmark.extra_info["scan_ms"] = round(out["scan_seconds"] * 1e3, 3)
    benchmark.extra_info["exact_ms"] = round(out["exact_seconds"] * 1e3, 3)
    benchmark.extra_info["exact_speedup"] = round(exact_speedup, 2)

    print()
    print(
        format_table(
            ["read path", "ms/read"],
            [
                ["exact counts_between (full window)", f"{out['scan_seconds'] * 1e3:.2f}"],
                ["exact counts (running totals)", f"{out['exact_seconds'] * 1e3:.2f}"],
            ],
        )
    )

    assert exact_speedup >= MIN_EXACT_SPEEDUP, (
        f"exact counts() only {exact_speedup:.2f}x over the full-window "
        f"counts_between at {N_PATHS} paths (need {MIN_EXACT_SPEEDUP}x)"
    )
