"""Precision-mode tests: validation, reads, checkpoints, and exactness.

The 25-seed property class is the acceptance gate for the default tier:
``exact`` mode must stay bit-identical to a brute-force scan of the raw
record stream.
"""

import json

import numpy as np
import pytest

from repro.core.paths import signature_from_edges
from repro.errors import ProfilingError
from repro.lang.ir import CLIENT, EXTERNAL
from repro.profiling.profiler import PROFILER_MODES, CausalPathProfiler
from repro.telemetry import MetricsRegistry
from tests.profiling.test_window import BruteWindow


def _sig(tag, request_type="go"):
    return signature_from_edges(
        request_type,
        [(EXTERNAL, request_type, "A"), ("A", tag, "B"), ("B", "done", CLIENT)],
    )


def _path_population(n):
    """``n`` distinct signatures spread over a handful of request types."""
    return [_sig(f"m{i}", request_type=f"rt{i % 5}") for i in range(n)]


def _profiler(mode="exact", paths=None, registry=None):
    paths = paths if paths is not None else [_sig("x"), _sig("y")]
    by_request = {}
    for sig in paths:
        by_request.setdefault(sig.request_type, []).append(sig)
    return CausalPathProfiler(
        by_request,
        window_minutes=60.0,
        registry=registry if registry is not None else MetricsRegistry(),
        mode=mode,
    )


class TestModeValidation:
    def test_modes_tuple(self):
        assert PROFILER_MODES == ("exact", "component")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ProfilingError):
            _profiler(mode="fuzzy")

    def test_component_weights_require_component_mode(self):
        profiler = _profiler()
        with pytest.raises(ProfilingError):
            profiler.component_weight_estimates(0.0)


class TestModeSwitching:
    """What a read returns depends on the mode the profiler is built in."""

    def test_component_mode_uniform_before_traffic(self):
        profiler = _profiler(mode="component")
        assert profiler.component_weight_estimates(0.0) == {}

    def test_sample_total_exact_in_every_mode(self):
        for mode in PROFILER_MODES:
            profiler = _profiler(mode=mode)
            profiler.record(_sig("x"), 5.0, count=7)
            profiler.record(_sig("y"), 20.0, count=3)
            assert profiler.sample_total_between(0.0, 10.0) == 7
            assert profiler.sample_total_between(0.0, 30.0) == 10


class TestCheckpointV2:
    def test_component_round_trip(self):
        profiler = _profiler(mode="component")
        profiler.record(_sig("x"), 5.0, count=4)
        restored = CausalPathProfiler.from_json(profiler.to_json())
        assert restored.mode == "component"
        assert restored.counts(5.0) == profiler.counts(5.0)
        assert restored.component_weight_estimates(5.0) == (
            profiler.component_weight_estimates(5.0)
        )

    def test_v1_payload_reads_as_exact(self):
        # A checkpoint written before precision modes existed: no
        # "version" key, no mode/tier-state/last_record fields.
        profiler = _profiler()
        pid = profiler.record(_sig("x"), 5.0, count=7)
        payload = json.loads(profiler.to_json())
        for key in ("version", "mode", "last_record_minutes", "components"):
            del payload[key]
        restored = CausalPathProfiler.from_json(json.dumps(payload))
        assert restored.mode == "exact"
        assert restored.last_record_minutes is None
        assert restored.counts(5.0)[pid] == 7

    def test_v2_payload_has_version(self):
        payload = json.loads(_profiler().to_json())
        assert payload["version"] == 2
        assert payload["mode"] == "exact"


@pytest.mark.parametrize("seed", range(25))
class TestExactBitIdentity:
    """ISSUE acceptance: the exact read is bit-identical to a brute-force
    scan of the **raw record stream** the test keeps (``BruteWindow`` in
    ``test_window.py`` — no buckets, no running totals) over randomised
    monotonic record/read sequences."""

    def test_counts_match_reference_scan(self, seed):
        paths = _path_population(40)
        profiler = _profiler(paths=paths)
        oracle = BruteWindow(profiler.window_minutes)
        pids = list(profiler.known_paths())
        rng = np.random.default_rng(seed)
        t = 0.0
        for _ in range(300):
            t += float(rng.uniform(0.0, 1.5))
            idx = int(rng.integers(0, 40))
            count = int(rng.integers(1, 4))
            oracle.add((profiler.record(paths[idx], t, count=count),), count, t)
            if rng.uniform() < 0.2:
                now = t + float(rng.uniform(0.0, 5.0))
                assert profiler.counts(now) == oracle.counts(pids, now)
                assert profiler.counts_between(now - 3, now) == oracle.counts_between(
                    pids, now - 3, now
                )

    def test_reads_into_past_match_reference_scan(self, seed):
        paths = _path_population(20)
        profiler = _profiler(paths=paths)
        oracle = BruteWindow(profiler.window_minutes)
        pids = list(profiler.known_paths())
        rng = np.random.default_rng(500 + seed)
        t = 0.0
        for _ in range(150):
            t += float(rng.uniform(0.0, 1.0))
            oracle.add((profiler.record(paths[int(rng.integers(0, 20))], t),), 1, t)
        for _ in range(10):
            # Reads earlier than the newest minute cannot use the running
            # totals.  A minute counts when it lies in [now - window, now]
            # and has not slid out of the window ending at the newest
            # time the profiler has been shown (here ``t``).
            now = float(rng.uniform(0.0, t))
            assert profiler.counts(now) == oracle.counts(pids, now)
