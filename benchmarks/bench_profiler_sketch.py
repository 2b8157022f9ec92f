"""Sketch-tier profiler gates: read cost, memory scaling, ε bound.

Synthetic Zipf traffic over 10k–20k causal paths (the "million-path"
regime scaled to CI budgets) drives the gated claims:

* the ``exact`` tier's ``counts()`` (running window totals) is ≥2x a
  full-window ``counts_between(now - window, now)``, which walks every
  minute table — measured ~7x — and the two agree cell for cell;
* sketch memory is O(k): near-flat when the path population doubles
  (gated ≤1.3x, measured ~1.1x);
* the ``topk`` estimates lose no mass, and measured hot-path probability
  error stays ≤ the documented ε
  (:data:`HOT_PATH_PROBABILITY_EPSILON`).

Two ratio asserts that used to live here lost their premise when the
tiers moved onto one epoch ring (``WindowedCounts``) and were deleted
rather than re-tuned.  ``topk counts() ≥ 1.5x the full scan`` compared
the sketch with a per-path bucket walk; the scan now adds up ~60 minute
tables and is ~4x faster than it was, while the sketch read (one
count-min estimate per tail path) is unchanged.  ``sketch state ≤ 0.7x
the exact state`` assumed an ``OrderedDict`` per *registered* path; the
ring holds one cell per (path, minute) *actually recorded*, so at this
load (120k records, 90 minutes) the exact window is ~1.5–2 MB against a
~5 MB sketch.  The sketch is the smaller tier only once the cells
recorded per window outgrow ``k`` entries plus the count-min tables —
that is what the O(k) flatness assert is about.  ms/read and bytes for
every tier stay in ``extra_info``.

The wall times land in ``BENCH_profiler_sketch.json`` and feed the
regression gate alongside the other benchmark files.
"""

import sys
import time

import numpy as np

from benchmarks.conftest import run_once
from repro.core.paths import signature_from_edges
from repro.evalx.reporting import format_table
from repro.lang.ir import CLIENT, EXTERNAL
from repro.profiling.profiler import CausalPathProfiler
from repro.profiling.sketches import HOT_PATH_PROBABILITY_EPSILON
from repro.telemetry import MetricsRegistry

N_PATHS = 12_000
N_RECORDS = 240_000
ZIPF_EXPONENT = 1.05
STREAM_MINUTES = 90.0
TOPK_K = 128
SEED = 7
READS = 10

MIN_EXACT_SPEEDUP = 2.0
MAX_MEMORY_SCALING = 1.3
HOT_PATHS_CHECKED = 20


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


def _build(n_paths, n_records, mode):
    paths = _make_paths(n_paths)
    by_request = {}
    for sig in paths:
        by_request.setdefault(sig.request_type, []).append(sig)
    profiler = CausalPathProfiler(
        by_request,
        window_minutes=60.0,
        registry=MetricsRegistry(),
        mode=mode,
        topk=TOPK_K,
    )
    for i, idx in enumerate(_zipf_draws(n_paths, n_records, SEED)):
        profiler.record(paths[int(idx)], STREAM_MINUTES * i / n_records)
    return profiler


def _read_seconds(fn, now):
    start = time.perf_counter()
    for _ in range(READS):
        out = fn(now)
    return (time.perf_counter() - start) / READS, out


def _deep_size(obj, seen=None):
    """Recursive ``getsizeof`` over dicts/sequences/slotted objects."""
    if seen is None:
        seen = set()
    oid = id(obj)
    if oid in seen:
        return 0
    seen.add(oid)
    size = sys.getsizeof(obj)
    if isinstance(obj, dict):
        for key, value in obj.items():
            size += _deep_size(key, seen) + _deep_size(value, seen)
    elif isinstance(obj, (list, tuple, set, frozenset)):
        for item in obj:
            size += _deep_size(item, seen)
    elif hasattr(obj, "__slots__"):
        for slot in obj.__slots__:
            if hasattr(obj, slot):
                size += _deep_size(getattr(obj, slot), seen)
    elif hasattr(obj, "__dict__"):
        size += _deep_size(obj.__dict__, seen)
    return size


def state_bytes(profiler):
    """The active tier's windowed count state, whatever the mode."""
    return _deep_size(profiler._tier)


def test_bench_counts_read_throughput(benchmark):
    """Exact running totals vs the full-window walk, plus the ε check."""

    def measure():
        exact = _build(N_PATHS, N_RECORDS, "exact")
        topk = _build(N_PATHS, N_RECORDS, "topk")
        now = STREAM_MINUTES
        exact_seconds, optimised = _read_seconds(exact.counts, now)
        scan_seconds, reference = _read_seconds(
            lambda end: exact.counts_between(end - exact.window_minutes, end), now
        )
        topk_seconds, estimates = _read_seconds(topk.counts, now)
        assert optimised == reference, "running totals diverged from the full-window walk"
        return {
            "scan_seconds": scan_seconds,
            "exact_seconds": exact_seconds,
            "topk_seconds": topk_seconds,
            "reference": reference,
            "estimates": estimates,
            "evictions": topk.sketch_evictions,
        }

    out = run_once(benchmark, measure)

    exact_speedup = out["scan_seconds"] / out["exact_seconds"]
    reference, estimates = out["reference"], out["estimates"]
    n_exact = sum(reference.values())
    n_topk = sum(estimates.values())
    hot = sorted(reference, key=lambda pid: (-reference[pid], pid))[:HOT_PATHS_CHECKED]
    hot_error = max(
        abs(estimates[pid] / n_topk - reference[pid] / n_exact) for pid in hot
    )

    benchmark.extra_info["paths"] = N_PATHS
    benchmark.extra_info["records"] = N_RECORDS
    benchmark.extra_info["scan_ms"] = round(out["scan_seconds"] * 1e3, 3)
    benchmark.extra_info["exact_ms"] = round(out["exact_seconds"] * 1e3, 3)
    benchmark.extra_info["topk_ms"] = round(out["topk_seconds"] * 1e3, 3)
    benchmark.extra_info["exact_speedup"] = round(exact_speedup, 2)
    benchmark.extra_info["hot_path_error"] = round(hot_error, 5)
    benchmark.extra_info["sketch_evictions"] = out["evictions"]

    print()
    print(
        format_table(
            ["read path", "ms/read"],
            [
                ["exact counts_between (full window)", f"{out['scan_seconds'] * 1e3:.2f}"],
                ["exact counts (running totals)", f"{out['exact_seconds'] * 1e3:.2f}"],
                ["topk counts (sketch)", f"{out['topk_seconds'] * 1e3:.2f}"],
            ],
        )
    )
    print(f"hot-path probability error: {hot_error:.5f} (ε = {HOT_PATH_PROBABILITY_EPSILON})")

    assert exact_speedup >= MIN_EXACT_SPEEDUP, (
        f"exact counts() only {exact_speedup:.2f}x over the full-window "
        f"counts_between at {N_PATHS} paths (need {MIN_EXACT_SPEEDUP}x)"
    )
    assert n_topk >= n_exact, "estimate sum lost mass vs the exact total"
    assert hot_error <= HOT_PATH_PROBABILITY_EPSILON, (
        f"hot-path probability error {hot_error:.4f} exceeds the documented "
        f"ε = {HOT_PATH_PROBABILITY_EPSILON}"
    )


def test_bench_sketch_memory_scaling(benchmark):
    """Sketch state must be O(k): flat when the path population doubles."""

    def measure():
        sizes = {}
        for n_paths in (10_000, 20_000):
            exact = _build(n_paths, 120_000, "exact")
            topk = _build(n_paths, 120_000, "topk")
            topk.counts(STREAM_MINUTES)
            sizes[n_paths] = {"exact": state_bytes(exact), "sketch": state_bytes(topk)}
        return sizes

    sizes = run_once(benchmark, measure)

    scaling = sizes[20_000]["sketch"] / sizes[10_000]["sketch"]
    ratio = sizes[10_000]["sketch"] / sizes[10_000]["exact"]
    rows = []
    for n_paths, entry in sorted(sizes.items()):
        rows.append(
            [f"{n_paths}", f"{entry['exact'] / 1e6:.2f} MB", f"{entry['sketch'] / 1e6:.2f} MB"]
        )
        benchmark.extra_info[f"exact_bytes_{n_paths}"] = entry["exact"]
        benchmark.extra_info[f"sketch_bytes_{n_paths}"] = entry["sketch"]
    benchmark.extra_info["sketch_scaling_2x_paths"] = round(scaling, 3)
    benchmark.extra_info["sketch_to_exact_ratio"] = round(ratio, 3)

    print()
    print(format_table(["paths", "exact state", "sketch state"], rows))
    print(f"sketch scaling 10k→20k paths: {scaling:.2f}x; sketch/exact: {ratio:.2f} (reported)")

    assert scaling <= MAX_MEMORY_SCALING, (
        f"sketch memory grew {scaling:.2f}x when paths doubled "
        f"(need ≤{MAX_MEMORY_SCALING}x for the O(k) claim)"
    )
