"""Run one workload: timed rounds, output checks, metrics.

Closed loop, single thread: one unit at a time, the next starts when the
previous returns.  ``gc.collect()`` runs before each unit and the
collector stays on.  The host is a shared 2-core box that spends most of
its time in a "slow" state and seconds to tens of seconds at a time in
one ~25 % faster, so a unit's time is the *median* of its identical repetitions
across rounds (best-of-N chases the rare fast state and spreads 2-3x
wider run to run), and throughput is total work over the sum of those.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Dict, List, Optional

from e2e_bench import REPO_ROOT, metrics
from e2e_bench.trace import LAYERS, Tracer, write_spans
from e2e_bench.workloads import WORKLOADS, Outcome, WorkloadRun

OUT_DIR = os.path.join(REPO_ROOT, "e2e_bench", "out")

#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 3


class Round:
    """One pass over a workload's units: per-unit wall time and outcome.

    A traced round also carries the tracer's per-layer aggregates and
    sampled spans for exactly the timed region.
    """

    def __init__(self, walls: List[float]) -> None:
        self.walls = walls
        self.outcomes: List[Outcome] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.spans: List[tuple] = []

    @property
    def wall(self) -> float:
        return sum(self.walls)


def run_round(run: WorkloadRun, tracer: Optional[Tracer] = None, keep: Optional[list] = None) -> Round:
    """Build, time and check one round; ``keep`` receives the finished units.

    With a ``tracer`` the classes are patched while the units are built
    and run, and restored before the output checks.
    """
    with tracer if tracer is not None else contextlib.nullcontext():
        units = run.new_round()
        if tracer is not None:
            # Building is set-up: only time spent inside the timed units
            # is attributed to layers.
            tracer.reset()
        walls: List[float] = []
        for index, unit in enumerate(units):
            if tracer is not None:
                tracer.begin_unit(index)
            gc.collect()
            start = perf_counter()
            unit.run()
            walls.append(perf_counter() - start)
        round_ = Round(walls)
        if tracer is not None:
            round_.self_s = tracer.self_seconds()
            round_.calls = tracer.calls()
            round_.spans = tracer.spans
    if keep is not None:
        keep.extend(units)
    round_.outcomes = [unit.finish() for unit in units]
    return round_


def setup_seconds(started: float, name: str, seed: int, scale: float, out_dir: str = OUT_DIR) -> float:
    """Process start to first timed unit: set-up plus every unit built."""
    os.makedirs(out_dir, exist_ok=True)
    run = WORKLOADS[name](seed, out_dir, scale)
    try:
        run.setup()
        run.new_round()
        return perf_counter() - started
    finally:
        run.close()


def probe_setup(name: str, seed: int, scale: float) -> float:
    """Time the set-up in a fresh interpreter (imports included)."""
    completed = subprocess.run(
        [sys.executable, "-m", "e2e_bench", "setup", "--workload", name,
         "--seed", str(seed), "--scale", repr(scale)],
        cwd=REPO_ROOT,
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return float(completed.stdout.strip().splitlines()[-1])


def _round_signature(round_: Round) -> List[tuple]:
    return [(o.digest, o.agility, o.sla_violation_pct) for o in round_.outcomes]


def _result_digest(round_: Round) -> str:
    blob = "|".join(
        f"{o.label}:{o.digest}:{o.agility!r}:{o.sla_violation_pct!r}" for o in round_.outcomes
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def measure(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    scale: float = 1.0,
    out_dir: str = OUT_DIR,
    setup_probes: int = SETUP_PROBES,
) -> Dict[str, object]:
    """Run workload ``name`` for ``seconds`` and return the result object.

    ``trace`` off gives the end-to-end metrics.  ``trace`` on alternates
    untraced and traced rounds and gives the per-layer metrics; the two
    kinds of round must agree on every digest, which is the proof that
    tracing changed nothing.
    """
    os.makedirs(out_dir, exist_ok=True)
    run = WORKLOADS[name](seed, out_dir, scale)
    tracer = Tracer() if trace else None
    plain: List[Round] = []
    traced: List[Round] = []
    first_units: list = []
    problems: List[str] = []
    try:
        run.setup()
        deadline = perf_counter() + seconds
        while True:
            plain.append(run_round(run, keep=None if plain else first_units))
            if tracer is not None:
                traced.append(run_round(run, tracer))
            if perf_counter() >= deadline:
                break
        first = plain[0]
        for round_ in plain[1:] + traced:
            if _round_signature(round_) != _round_signature(first):
                kind = "traced" if round_ in traced else "repeated"
                problems.append(f"a {kind} round gave different results than the first")
        problems.extend(run.cross_checks(first_units, first.outcomes))
    finally:
        run.close()

    outcomes = first.outcomes
    rounds = len(plain) + len(traced)
    opened = sum(o.paths_opened for o in outcomes)
    # A unit that failed a check loses all its paths, a failed
    # workload-level check loses every path; a unit that raised never
    # gets here (the run exits non-zero without a result).
    failed_paths = opened if problems else sum(o.paths_opened for o in outcomes if o.problems)
    for outcome in outcomes:
        problems.extend(f"{outcome.label}: {p}" for p in outcome.problems)
    if problems:
        print("output checks failed:\n  " + "\n  ".join(problems), file=sys.stderr)
    if trace:
        values = _per_layer_values(plain, traced, failed_paths)
        write_spans(values.pop("spans"), os.path.join(out_dir, f"trace-{name}.jsonl"))
    else:
        values = _end_to_end_values(plain)
        probes = [probe_setup(name, seed, scale) for _ in range(setup_probes)]
        values["setup_s"] = statistics.median(probes)
    return {
        "correct": not problems,
        "attempted": max(1, int(opened * rounds)),
        "failed": int(failed_paths * rounds),
        "metrics": {
            key: {"value": value, "unit": metrics.UNITS[key]} for key, value in values.items()
        },
    }


def _end_to_end_values(plain: List[Round]) -> Dict[str, float]:
    outcomes = plain[0].outcomes
    typical = sum(statistics.median(r.walls[i] for r in plain) for i in range(len(outcomes)))
    return {
        "sim_minutes_per_s": sum(o.sim_minutes for o in outcomes) / typical,
        "messages_per_s": sum(o.messages for o in outcomes) / typical,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer_values(
    plain: List[Round], traced: List[Round], failed_paths: float
) -> Dict[str, object]:
    outcomes = plain[0].outcomes
    # One whole traced round, the one of median wall time, so the layer
    # times sum to the wall they are compared with.
    walls = [r.wall for r in traced]
    chosen = traced[walls.index(statistics.median_low(walls))]
    values: Dict[str, object] = {"spans": chosen.spans}
    for layer in LAYERS:
        values[f"{layer}.self_s"] = chosen.self_s[layer]
        values[f"{layer}.calls"] = float(chosen.calls[layer])
    counts: Dict[str, float] = {}
    for outcome in outcomes:
        for key, value in outcome.counts.items():
            counts[key] = counts.get(key, 0.0) + value
    replay_units = [o for o in outcomes if o.counts["sim.events.replayed_executions"]]
    if replay_units:
        counts["sim.events.cutover_minute"] /= len(replay_units)
    batches = counts["graphstore.pipeline.write_batches"]
    counts["graphstore.pipeline.mean_batch_size"] = (
        counts["graphstore.pipeline.batched_writes"] / batches if batches else 0.0
    )
    values.update(counts)
    opened = sum(o.paths_opened for o in outcomes)
    messages = sum(o.messages for o in outcomes)
    lost = sum(o.paths_lost for o in outcomes)
    values["failed_share"] = min(1.0, (lost + failed_paths) / opened) if opened else 0.0
    values["journal_bytes_per_msg"] = (
        counts["graphstore.backend.bytes"] / messages if messages else 0.0
    )
    scored = [o for o in outcomes if o.agility is not None]
    values["evalx.agility_mean"] = sum(o.agility for o in scored) / len(scored) if scored else 0.0
    values["evalx.sla_violation_pct"] = (
        sum(o.sla_violation_pct for o in scored) / len(scored) if scored else 0.0
    )
    values["result_digest"] = float(int(_result_digest(plain[0])[:12], 16))
    values["harness.units"] = float(len(outcomes))
    values["harness.wall_s"] = statistics.median(r.wall for r in plain)
    values["harness.traced_wall_s"] = chosen.wall
    # Each traced round ran right after an untraced one, so the pair
    # shares the host's speed at that moment; the median pair ratio
    # drifts far less than a ratio of two medians.
    values["harness.trace_overhead"] = statistics.median(
        t.wall / p.wall for t, p in zip(traced, plain)
    )
    values["harness.layer_sum_ratio"] = sum(chosen.self_s.values()) / chosen.wall
    return values
