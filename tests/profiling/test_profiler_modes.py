"""Precision-mode tests: switching, checkpoints, and the ε property.

The 25-seed property classes are the acceptance gate for the sketch
tiers: under Zipf and flash-crowd workloads (built from
:mod:`repro.workloads.patterns`), ``topk`` hot-path causal probabilities
must stay within :data:`HOT_PATH_PROBABILITY_EPSILON` of exact mode, and
``exact`` mode must stay bit-identical to a brute-force scan of the raw
record stream.
"""

import json

import numpy as np
import pytest

from repro.core.elasticity import ProfileStalenessDetector, StalenessPolicy
from repro.core.paths import signature_from_edges
from repro.errors import ElasticityError, ProfilingError
from repro.lang.ir import CLIENT, EXTERNAL
from repro.profiling.profiler import PROFILER_MODES, CausalPathProfiler
from repro.profiling.sketches import HOT_PATH_PROBABILITY_EPSILON
from repro.telemetry import MetricsRegistry
from repro.workloads.patterns import flash_crowd_mix, zipf_weights
from tests.profiling.test_window import BruteWindow


def _sig(tag, request_type="go"):
    return signature_from_edges(
        request_type,
        [(EXTERNAL, request_type, "A"), ("A", tag, "B"), ("B", "done", CLIENT)],
    )


def _path_population(n):
    """``n`` distinct signatures spread over a handful of request types."""
    return [_sig(f"m{i}", request_type=f"rt{i % 5}") for i in range(n)]


def _profiler(mode="exact", topk=32, paths=None, registry=None):
    paths = paths if paths is not None else [_sig("x"), _sig("y")]
    by_request = {}
    for sig in paths:
        by_request.setdefault(sig.request_type, []).append(sig)
    return CausalPathProfiler(
        by_request,
        window_minutes=60.0,
        registry=registry if registry is not None else MetricsRegistry(),
        mode=mode,
        topk=topk,
    )


class TestModeValidation:
    def test_modes_tuple(self):
        assert PROFILER_MODES == ("exact", "topk", "component")

    def test_unknown_mode_rejected(self):
        with pytest.raises(ProfilingError):
            _profiler(mode="fuzzy")

    def test_bad_topk_rejected(self):
        with pytest.raises(ProfilingError):
            _profiler(mode="topk", topk=0)

    def test_set_mode_unknown_rejected(self):
        profiler = _profiler()
        with pytest.raises(ProfilingError):
            profiler.set_mode("fuzzy")

    def test_component_weights_require_component_mode(self):
        profiler = _profiler()
        with pytest.raises(ProfilingError):
            profiler.component_weight_estimates(0.0)

    def test_downshift_mode_validated(self):
        with pytest.raises(ElasticityError):
            StalenessPolicy(downshift_mode="exact")


class TestModeSwitching:
    def test_exact_to_topk_carries_window(self):
        profiler = _profiler()
        pid = profiler.record(_sig("x"), 5.0, count=40)
        profiler.record(_sig("y"), 6.0, count=10)
        exact = profiler.counts(6.0)
        profiler.set_mode("topk")
        assert profiler.mode == "topk"
        approx = profiler.counts(6.0)
        assert approx[pid] == exact[pid]
        assert sum(approx.values()) == sum(exact.values())

    def test_topk_back_to_exact_materialises_monitored(self):
        profiler = _profiler(mode="topk", topk=8)
        pid = profiler.record(_sig("x"), 5.0, count=40)
        profiler.set_mode("exact")
        assert profiler.mode == "exact"
        assert profiler.counts(5.0)[pid] == 40

    def test_exact_to_component_collapses_paths(self):
        profiler = _profiler()
        profiler.record(_sig("x"), 5.0, count=4)
        profiler.set_mode("component")
        totals = profiler.counts(5.0)
        assert totals == {"A": 4, "B": 4}
        weights = profiler.component_weight_estimates(5.0)
        assert weights["A"] == pytest.approx(1.0)

    def test_component_to_exact_starts_cold(self):
        profiler = _profiler(mode="component")
        pid = profiler.record(_sig("x"), 5.0, count=4)
        profiler.set_mode("exact")
        assert profiler.counts(5.0)[pid] == 0

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

    def test_topk_resize_keeps_monitored(self):
        profiler = _profiler(mode="topk", topk=8)
        pid = profiler.record(_sig("x"), 5.0, count=40)
        profiler.set_mode("topk", topk=4)
        assert profiler.topk_k == 4
        assert profiler.counts(5.0)[pid] == 40

    @pytest.mark.parametrize("mode", PROFILER_MODES)
    def test_same_mode_call_keeps_the_window(self, mode):
        # ``topk`` means something only in topk mode (where a new k is a
        # resize); elsewhere a same-mode call records it and keeps the
        # tier.  exact and component used to come back empty.
        profiler = _profiler(mode=mode, topk=32)
        profiler.record(_sig("x"), 1.0, count=5)
        before = profiler.counts(2.0)
        new_k = 32 if mode == "topk" else 64
        profiler.set_mode(mode, topk=new_k)
        assert profiler.topk_k == new_k
        assert sum(before.values()) >= 5
        assert profiler.counts(2.0) == before
        assert profiler.sample_total_between(0.0, 2.0) == 5


class TestCheckpointV2:
    def test_topk_round_trip(self):
        paths = _path_population(30)
        profiler = _profiler(mode="topk", topk=8, paths=paths)
        rng = np.random.default_rng(7)
        for t in range(120):
            profiler.record(paths[int(rng.integers(0, 30))], float(t % 50))
        restored = CausalPathProfiler.from_json(profiler.to_json())
        assert restored.mode == "topk"
        assert restored.topk_k == 8
        assert restored.counts(50.0) == profiler.counts(50.0)
        assert restored.sketch_evictions == profiler.sketch_evictions

    def test_component_round_trip(self):
        profiler = _profiler(mode="component")
        profiler.record(_sig("x"), 5.0, count=4)
        restored = CausalPathProfiler.from_json(profiler.to_json())
        assert restored.mode == "component"
        assert restored.counts(5.0) == profiler.counts(5.0)
        assert restored.component_weight_estimates(5.0) == (
            profiler.component_weight_estimates(5.0)
        )

    def test_restored_topk_keeps_recording(self):
        profiler = _profiler(mode="topk", topk=8)
        pid = profiler.record(_sig("x"), 5.0, count=3)
        restored = CausalPathProfiler.from_json(profiler.to_json())
        restored.record(_sig("x"), 6.0, count=2)
        assert restored.counts(6.0)[pid] == 5

    def test_v1_payload_reads_as_exact(self):
        # A checkpoint written before the sketch tiers existed: no
        # "version" key, no mode/sketch/last_record fields.
        profiler = _profiler()
        pid = profiler.record(_sig("x"), 5.0, count=7)
        payload = json.loads(profiler.to_json())
        for key in ("version", "mode", "topk", "last_record_minutes", "sketch", "components"):
            del payload[key]
        restored = CausalPathProfiler.from_json(json.dumps(payload))
        assert restored.mode == "exact"
        assert restored.last_record_minutes is None
        assert restored.counts(5.0)[pid] == 7

    def test_v2_payload_has_version(self):
        payload = json.loads(_profiler().to_json())
        assert payload["version"] == 2
        assert payload["mode"] == "exact"


class TestStalenessDownshift:
    def _detector(self, downshift_mode="topk"):
        registry = MetricsRegistry()
        profiler = _profiler(registry=registry)
        policy = StalenessPolicy(
            min_recent_samples=5,
            recent_horizon_minutes=3.0,
            stale_after_intervals=2,
            fresh_after_intervals=2,
            downshift_mode=downshift_mode,
        )
        return ProfileStalenessDetector(profiler, policy), profiler, registry

    def test_engage_downshifts_and_release_restores(self):
        detector, profiler, registry = self._detector("topk")
        for minute in range(5):
            profiler.record(_sig("x"), float(minute), count=10)
            assert detector.update(float(minute)) is False
        assert profiler.mode == "exact"
        detector.update(10.0)
        assert detector.update(11.0) is True
        assert profiler.mode == "topk"
        assert registry.get("elasticity.precision_downshifts").value == 1
        # Recovery: the exact scalar ring keeps feeding the detector even
        # in the downshifted tier.
        profiler.record(_sig("x"), 12.0, count=10)
        detector.update(12.0)
        profiler.record(_sig("x"), 13.0, count=10)
        assert detector.update(13.0) is False
        assert profiler.mode == "exact"
        assert registry.get("elasticity.precision_restores").value == 1

    def test_component_downshift(self):
        detector, profiler, _ = self._detector("component")
        for minute in range(5):
            profiler.record(_sig("x"), float(minute), count=10)
            detector.update(float(minute))
        detector.update(10.0)
        detector.update(11.0)
        assert profiler.mode == "component"

    def test_no_downshift_by_default(self):
        detector, profiler, _ = self._detector(None)
        for minute in range(5):
            profiler.record(_sig("x"), float(minute), count=10)
            detector.update(float(minute))
        detector.update(10.0)
        assert detector.update(11.0) is True
        assert profiler.mode == "exact"


def _hot_path_errors(paths, streams, topk=32):
    """Feed identical streams to exact and topk profilers; return the
    worst absolute hot-path probability deviation."""
    exact = _profiler(paths=paths)
    approx = _profiler(mode="topk", topk=topk, paths=paths)
    last = 0.0
    for t, idx, count in streams:
        exact.record(paths[idx], t, count=count)
        approx.record(paths[idx], t, count=count)
        last = max(last, t)
    exact_counts = exact.counts(last)
    approx_counts = approx.counts(last)
    n_exact = sum(exact_counts.values())
    n_approx = sum(approx_counts.values())
    assert n_exact > 0
    # The estimate denominator is pinned to the exact windowed total; it
    # can only overshoot by the monitored entries' inherited error.
    max_error = sum(entry.error for entry in approx._tier.topk.entries())
    assert n_exact <= n_approx <= n_exact + max_error
    hot = sorted(exact_counts, key=lambda pid: (-exact_counts[pid], pid))[:10]
    return max(
        abs(approx_counts[pid] / n_approx - exact_counts[pid] / n_exact) for pid in hot
    )


@pytest.mark.parametrize("seed", range(25))
class TestTopKEpsilonProperty:
    """ISSUE acceptance: topk hot-path probabilities within ε of exact."""

    def test_zipf_workload(self, seed):
        paths = _path_population(120)
        weights = zipf_weights([f"m{i}" for i in range(120)], exponent=1.1)
        p = np.asarray(list(weights.values()))
        p = p / p.sum()
        rng = np.random.default_rng(seed)
        draws = rng.choice(120, size=2500, p=p)
        streams = [(float(i % 55), int(idx), 1) for i, idx in enumerate(draws)]
        assert _hot_path_errors(paths, streams) <= HOT_PATH_PROBABILITY_EPSILON

    def test_flash_crowd_workload(self, seed):
        names = [f"m{i}" for i in range(120)]
        paths = _path_population(120)
        rng = np.random.default_rng(1000 + seed)
        # The hot class starts deep in the Zipf tail and spikes to 75 %
        # of traffic mid-stream — the shift case the sketch must track.
        mix = flash_crowd_mix(
            names,
            hot_class=names[90],
            start_minute=20.0,
            ramp_minutes=2.0,
            hold_minutes=15.0,
        )
        streams = []
        for minute in range(55):
            weights = mix.mix(float(minute))
            p = np.asarray([weights.get(name, 0.0) for name in names])
            p = p / p.sum()
            for idx in rng.choice(120, size=40, p=p):
                streams.append((float(minute), int(idx), 1))
        assert _hot_path_errors(paths, streams) <= HOT_PATH_PROBABILITY_EPSILON


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
