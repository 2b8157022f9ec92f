"""Profiler merge tests (the parallel runner's foundation).

The parallel experiment runner splits one record stream over N workers,
each feeding its own profiler, and merges the per-worker profilers on
the way back.  These tests pin the contract that makes that sound:
:meth:`~repro.profiling.profiler.CausalPathProfiler.merge` composes in
both precision modes (bit-identical to a serial union) and refuses
mismatched modes.
"""

import random

import pytest

from repro.core.paths import PathSignature
from repro.errors import ProfilingError
from repro.profiling.profiler import CausalPathProfiler
from repro.profiling.sketches import ComponentActivitySummary
from repro.telemetry import MetricsRegistry

WINDOW = 60.0


def _signatures():
    return {
        f"req{i}": [
            PathSignature(f"req{i}", (("fe", "m1", "svc"), ("svc", f"m{i}", "db")))
        ]
        for i in range(6)
    }


def _record_partitioned(profilers, sigs, seed):
    rng = random.Random(seed)
    names = sorted(sigs)
    for j in range(600):
        name = names[rng.randrange(len(names)) if rng.random() < 0.3 else 0]
        profilers[j % len(profilers)].record(sigs[name][0], 10.0 + j * 0.1)


class TestProfilerMerge:
    @pytest.mark.parametrize("mode", ["exact", "component"])
    def test_merge_equals_serial_union(self, mode):
        sigs = _signatures()
        serial = CausalPathProfiler(sigs, registry=MetricsRegistry(), mode=mode)
        workers = [
            CausalPathProfiler(sigs, registry=MetricsRegistry(), mode=mode)
            for _ in range(3)
        ]
        _record_partitioned([serial], sigs, seed=5)
        _record_partitioned(workers, sigs, seed=5)
        base = workers[0]
        base.merge(workers[1])
        base.merge(workers[2])
        assert base.counts(75.0) == serial.counts(75.0)
        assert base.sample_total_between(10.0, 75.0) == serial.sample_total_between(
            10.0, 75.0
        )

    def test_exact_merge_unions_dynamic_paths(self):
        sigs = _signatures()
        a = CausalPathProfiler(sigs, registry=MetricsRegistry())
        b = CausalPathProfiler(sigs, registry=MetricsRegistry())
        novel = PathSignature("req0", (("fe", "mx", "svc"),))
        b.record(novel, 20.0)
        a.merge(b)
        assert novel.path_id in a.known_paths()
        assert a.counts(30.0)[novel.path_id] == 1
        assert a.dynamic_registrations == 1

    def test_merge_carries_last_record_minutes(self):
        sigs = _signatures()
        a = CausalPathProfiler(sigs, registry=MetricsRegistry())
        b = CausalPathProfiler(sigs, registry=MetricsRegistry())
        a.record(sigs["req0"][0], 12.0)
        b.record(sigs["req1"][0], 44.0)
        a.merge(b)
        assert a.last_record_minutes == 44.0

    def test_mode_mismatch_refused(self):
        sigs = _signatures()
        a = CausalPathProfiler(sigs, registry=MetricsRegistry(), mode="exact")
        b = CausalPathProfiler(sigs, registry=MetricsRegistry(), mode="component")
        with pytest.raises(ProfilingError):
            a.merge(b)

    def test_component_merge_is_exact(self):
        sigs = _signatures()
        serial = ComponentActivitySummary(WINDOW)
        parts = [ComponentActivitySummary(WINDOW) for _ in range(2)]
        events = [(("fe", "svc"), 30.0), (("svc", "db"), 40.0), (("fe", "db"), 50.0)]
        for i, (comps, t) in enumerate(events):
            serial.record(comps, 2, t)
            parts[i % 2].record(comps, 2, t)
        parts[0].merge(parts[1])
        assert parts[0].totals(55.0) == serial.totals(55.0)
        assert parts[0].request_total == serial.request_total
