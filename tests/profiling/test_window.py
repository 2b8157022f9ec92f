"""The one sliding window, against brute force over the raw records.

:class:`BruteWindow` is the oracle: it keeps every ``add`` it was shown
as a raw ``(minute, keys, count)`` record and answers reads by scanning
them — no per-minute tables, no running totals, no ordering to maintain.
``tests/profiling/test_profiler_modes.py::TestExactBitIdentity`` uses
the same oracle through the profiler.

Besides the seeded property test of :class:`WindowedCounts` this file
pins the traps a window rewrite falls into (key order, merges into past
minutes, the dense count-min aggregate, reads into the past), the
``set_mode`` transition matrix, and checkpoints written by the commit
before the ring existed.
"""

import json
import random
from pathlib import Path

import pytest

from repro.core.paths import PathSignature
from repro.core.probability import causal_probabilities
from repro.profiling.profiler import PROFILER_MODES, CausalPathProfiler
from repro.profiling.sketches import (
    ComponentActivitySummary,
    ExactPathWindow,
    WindowedCountMinSketch,
    WindowedCounts,
)
from repro.telemetry import MetricsRegistry

WINDOW = 20.0
KEYS = [f"k{i}" for i in range(9)]


class BruteWindow:
    """Raw-record oracle for the window's rule: a record counts while its
    minute is not strictly older than ``shown - window`` for every time
    the window has been shown (adds and advancing reads alike)."""

    def __init__(self, window_minutes):
        self.window_minutes = window_minutes
        self.records = []

    def advance(self, now):
        horizon = now - self.window_minutes
        self.records = [r for r in self.records if r[0] >= horizon]

    def add(self, keys, count, time_minutes):
        self.advance(time_minutes)
        self.records.append((int(time_minutes), tuple(keys), count))

    def between(self, start, end):
        out = {}
        for minute, keys, count in self.records:
            if start <= minute <= end:
                for key in keys:
                    out[key] = out.get(key, 0) + count
        return out

    def mass_between(self, start, end):
        return sum(c for minute, _, c in self.records if start <= minute <= end)

    def counts(self, keys, now):
        """What a tier that lists every key reads at ``now``."""
        self.advance(now)
        return self.counts_between(keys, now - self.window_minutes, now)

    def counts_between(self, keys, start, end):
        return {**dict.fromkeys(keys, 0), **self.between(start, end)}


def _live_totals(ring):
    return {key: total for key, total in ring.totals.items() if total}


def _random_adds(seed, n=400):
    rng = random.Random(seed)
    t = 0.0
    adds = []
    for _ in range(n):
        t += rng.uniform(0.0, 0.8)
        keys = rng.sample(KEYS, rng.randint(0, 3))
        adds.append((keys, rng.randint(1, 4), t))
    return adds


def _assert_same_window(ring, brute):
    everything = (-1.0, 1e9)
    assert _live_totals(ring) == brute.between(*everything)
    assert ring.total == brute.mass_between(*everything)
    assert ring.between(*everything) == brute.between(*everything)
    assert list(ring.epochs) == sorted(ring.epochs)
    assert set(ring.mass) == set(ring.epochs)


@pytest.mark.parametrize("seed", range(10))
class TestWindowedCountsProperty:
    def test_add_advance_and_reads_match_brute_force(self, seed):
        rng = random.Random(1000 + seed)
        ring, brute = WindowedCounts(WINDOW), BruteWindow(WINDOW)
        for keys, count, t in _random_adds(seed):
            ring.add(keys, count, t)
            brute.add(keys, count, t)
            roll = rng.random()
            if roll < 0.1:
                now = t + rng.uniform(0.0, 6.0)
                ring.advance(now)
                brute.advance(now)
            if roll < 0.3:
                start = t - rng.uniform(0.0, 30.0)
                end = start + rng.uniform(0.0, 30.0)
                assert ring.between(start, end) == brute.between(start, end)
                assert ring.mass_between(start, end) == brute.mass_between(start, end)
                _assert_same_window(ring, brute)

    def test_multi_key_add_counts_mass_once(self, seed):
        ring = WindowedCounts(WINDOW)
        adds = _random_adds(seed, n=50)
        for keys, count, t in adds:
            ring.add(keys, count, t)
        last = adds[-1][2]
        live = [(keys, c) for keys, c, t in adds if int(t) >= last - WINDOW]
        assert ring.total == sum(c for _, c in live)
        assert sum(ring.totals.values()) == sum(c * len(keys) for keys, c in live)

    def test_four_way_partition_merges_to_the_whole(self, seed):
        adds = _random_adds(seed)
        whole = WindowedCounts(WINDOW)
        parts = [WindowedCounts(WINDOW) for _ in range(4)]
        for i, (keys, count, t) in enumerate(adds):
            whole.add(keys, count, t)
            parts[i % 4].add(keys, count, t)
        merged = parts[0]
        for part in parts[1:]:
            merged.merge(part)
        now = adds[-1][2]
        merged.advance(now)
        whole.advance(now)
        assert _live_totals(merged) == _live_totals(whole)
        assert merged.total == whole.total
        assert merged.to_state() == whole.to_state()
        # ... and keeps expiring like the whole afterwards.
        merged.advance(now + WINDOW / 2)
        whole.advance(now + WINDOW / 2)
        assert merged.to_state() == whole.to_state()

    def test_state_round_trip(self, seed):
        ring = WindowedCounts(WINDOW)
        for keys, count, t in _random_adds(seed, n=120):
            ring.add(keys, count, t)
        cells, mass = json.loads(json.dumps(ring.to_state()))
        restored = WindowedCounts(WINDOW)
        restored.load(cells, mass)
        assert json.loads(json.dumps(restored.to_state())) == [cells, mass]
        assert _live_totals(restored) == _live_totals(ring)
        assert restored.total == ring.total


def _sig(i):
    return PathSignature(f"req{i}", (("fe", "m1", "svc"), ("svc", f"m{i}", f"db{i % 3}")))


def _profiler(mode="exact", topk=2, n=6):
    return CausalPathProfiler(
        {f"req{i}": [_sig(i)] for i in range(n)},
        window_minutes=60.0,
        registry=MetricsRegistry(),
        mode=mode,
        topk=topk,
    )


class TestKeyOrderIsObservable:
    """``counts()`` feeds float sums taken in dict order (trap i)."""

    def test_exact_lists_every_path_in_registration_order(self):
        profiler = _profiler()
        registered = list(profiler.known_paths())
        # Touch the paths in reverse, so first-touch order != registration.
        for i in reversed(range(6)):
            profiler.record(_sig(i), 5.0 + i)
        late = PathSignature("req0", (("fe", "mx", "svc"),))
        profiler.record(late, 12.0)
        expected = registered + [late.path_id]
        assert list(profiler.counts(12.0)) == expected
        assert list(profiler.counts_between(6.0, 7.0)) == expected
        assert list(profiler.counts(500.0)) == expected  # all zeros, still listed
        assert list(profiler.counts(2.0)) == expected  # read into the past

    def test_component_keeps_first_touch_position_through_zero(self):
        summary = ComponentActivitySummary(60.0)
        summary.record(("A",), 3, 0.0)
        summary.record(("B", "C"), 1, 30.0)
        assert list(summary.totals(30.0)) == ["A", "B", "C"]
        assert list(summary.totals(70.0)) == ["B", "C"]  # A expired
        summary.record(("A",), 2, 71.0)
        assert list(summary.totals(71.0)) == ["A", "B", "C"]
        assert list(summary.weights(71.0)) == ["A", "B", "C"]

    def test_probabilities_do_not_depend_on_touch_order(self):
        forward, backward = _profiler(), _profiler()
        for i in range(6):
            forward.record(_sig(i), 5.0, count=i + 1)
            backward.record(_sig(5 - i), 5.0, count=6 - i)
        assert list(causal_probabilities(forward.counts(5.0)).items()) == list(
            causal_probabilities(backward.counts(5.0)).items()
        )


class TestPastMinutes:
    """Merges and restores land in past minutes (trap ii)."""

    def test_put_does_not_expire_and_keeps_minutes_sorted(self):
        ring = WindowedCounts(10.0)
        ring.add(("new",), 1, 100.0)
        ring.put(50, [("old", 4)], 4)  # far behind the window ending at 100
        ring.put(95, [("mid", 2)], 2)
        assert list(ring.epochs) == [50, 95, 100]
        assert ring.total == 7 and ring.totals["old"] == 4
        ring.advance(100.0)  # pops from the front: 50 goes, 95 and 100 stay
        assert list(ring.epochs) == [95, 100]
        assert ring.total == 3 and ring.totals["old"] == 0

    def test_merge_of_an_older_window_expires_on_the_next_advance(self):
        new, old = ExactPathWindow(60.0), ExactPathWindow(60.0)
        new.record("p", 5, 100.0)
        old.record("q", 3, 10.0)
        new.merge(old)
        assert new.sample_total_between(0.0, 200.0) == 8
        assert new.counts(["p", "q"], 100.0) == {"p": 5, "q": 0}

    def test_late_add_lands_in_its_own_minute(self):
        ring = WindowedCounts(60.0)
        ring.add(("a",), 1, 30.0)
        ring.add(("a",), 1, 10.0)
        assert list(ring.epochs) == [10, 30]
        ring.advance(75.0)
        assert list(ring.epochs) == [30]


class TestDenseCountMinAggregate:
    """The count-min running totals stay a flat list (trap iii)."""

    def test_aggregate_is_a_dense_list_of_the_live_minutes(self):
        cms = WindowedCountMinSketch(60.0, width=64, depth=3)
        assert type(cms.ring.totals) is list and len(cms.ring.totals) == 64 * 3
        for i in range(200):
            cms.add(f"k{i % 17}", 1 + i % 3, float(i % 90))
        dense = [0] * (64 * 3)
        for table in cms.ring.epochs.values():
            for idx, count in table.items():
                dense[idx] += count
        assert cms.ring.totals == dense
        assert cms.total == sum(cms.ring.mass.values())
        # One mass unit per add, however many rows it touched.
        assert sum(dense) == cms.total * cms.depth


@pytest.mark.parametrize("seed", range(5))
def test_reads_into_the_past_follow_the_newest_time_shown(seed):
    """Trap iv: the window expires whole minutes, for every path alike."""
    profiler = _profiler()
    brute = BruteWindow(60.0)
    pids = list(profiler.known_paths())
    rng = random.Random(seed)
    t = 0.0
    for _ in range(200):
        t += rng.uniform(0.0, 1.2)
        i = rng.randrange(6)
        brute.add((profiler.record(_sig(i), t),), 1, t)
    for _ in range(20):
        now = rng.uniform(0.0, t)
        assert profiler.counts(now) == brute.counts(pids, now)
        assert profiler.counts_between(now - 5.0, now) == brute.counts_between(
            pids, now - 5.0, now
        )
        assert profiler.sample_total_between(now - 5.0, now) == brute.mass_between(
            now - 5.0, now
        )


def _loaded(mode):
    profiler = _profiler(mode=mode)
    rng = random.Random(3)
    for j in range(120):
        i = min(5, int(rng.expovariate(0.7)))
        profiler.record(_sig(i), 5.0 + j * 0.4, count=rng.randint(1, 3))
    return profiler


def _reads(profiler):
    return (
        profiler.counts(53.0),
        profiler.counts_between(50.0, 53.0),
        profiler.sample_total_between(50.0, 53.0),
        profiler.sample_total_between(0.0, 53.0),
        profiler.sketch_evictions,
    )


@pytest.mark.parametrize("new", PROFILER_MODES)
@pytest.mark.parametrize("old", PROFILER_MODES)
def test_set_mode_is_swap_the_tier_and_replay_its_events(old, new):
    profiler = _loaded(old)
    events = list(profiler._tier.events())
    before = _reads(_loaded(old))
    flow = before[3]
    profiler.set_mode(new)
    assert profiler.mode == new
    if old == new:
        assert _reads(profiler) == before
        return
    fresh = _profiler(mode=new)
    paths = fresh.known_paths()
    for epoch, pid, count in events:
        fresh.record(paths[pid], float(epoch), count=count)
    assert _reads(profiler) == _reads(fresh)
    carried = profiler.sample_total_between(0.0, 53.0)
    if old == "exact":
        assert carried == flow  # every cell replays
    elif old == "topk":
        assert 0 < carried <= flow  # monitored entries only, tail dropped
    else:
        assert carried == 0  # component kept no path identity: cold start


def test_topk_resize_replays_the_monitored_entries():
    profiler = _loaded("topk")
    events = list(profiler._tier.events())
    profiler.set_mode("topk", topk=4)
    fresh = _profiler(mode="topk", topk=4)
    for epoch, pid, count in events:
        fresh.record(fresh.known_paths()[pid], float(epoch), count=count)
    assert _reads(profiler) == _reads(fresh)


class TestCheckpointsFromBeforeTheRing:
    """``data/checkpoints_pr23.json``: payloads written by the commit
    before this window existed (v2 in each mode, and the v1 shape), with
    the reads that commit answered after restoring them."""

    GOLDEN = json.loads(
        (Path(__file__).parent / "data" / "checkpoints_pr23.json").read_text()
    )

    @pytest.mark.parametrize("name", ["exact", "topk", "component", "v1"])
    def test_restores_to_the_same_reads(self, name):
        entry = self.GOLDEN[name]
        profiler = CausalPathProfiler.from_json(
            json.dumps(entry["checkpoint"]), registry=MetricsRegistry()
        )
        reads = entry["reads"]
        assert profiler.mode == ("exact" if name == "v1" else name)
        assert profiler.last_record_minutes == reads["last"]
        assert list(profiler.counts(70.0).items()) == list(reads["counts"].items())
        for start, end in ((55.0, 70.0), (68.0, 70.0), (0.0, 200.0)):
            between = profiler.counts_between(start, end)
            assert list(between.items()) == list(reads[f"between_{start}_{end}"].items())
            assert profiler.sample_total_between(start, end) == reads[f"flow_{start}_{end}"]
        assert profiler.counts(100.0) == reads["counts_later"]
        assert profiler.sketch_evictions == reads["evictions"]

    @pytest.mark.parametrize("name", ["topk", "component"])
    def test_sketch_payloads_round_trip_unchanged(self, name):
        checkpoint = self.GOLDEN[name]["checkpoint"]
        profiler = CausalPathProfiler.from_json(
            json.dumps(checkpoint), registry=MetricsRegistry()
        )
        written = json.loads(profiler.to_json())
        # A restore re-registers paths grouped by request type; everything
        # else — the tier's state slot included — is written back as read.
        key = json.dumps
        assert sorted(written.pop("paths"), key=key) == sorted(checkpoint["paths"], key=key)
        assert written == {k: v for k, v in checkpoint.items() if k != "paths"}
