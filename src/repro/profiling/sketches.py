"""The profiler's sliding window and the precision tiers built on it.

The paper has one window — causal probability is a path's share of the
completions counted "over a sliding (60-minute, configurable) window" —
and so does this module: :class:`WindowedCounts`, a ring of per-minute
``{key: count}`` tables with a per-minute *mass*, running per-key totals
and one total.  It is the only place that knows how a minute enters and
leaves the window; everything else says what it keys the ring by:

* :class:`ExactPathWindow` (``exact`` mode) — keyed by path id.  Memory
  is one cell per (path, minute) actually recorded.
* :class:`ComponentActivitySummary` (``component`` mode, the cheapest
  tier, in the spirit of D²ABS's coarsest cost-effectiveness level) —
  keyed by component name; a completion is filed under every component
  on its path and counts once in the mass.
* :class:`WindowedCountMinSketch` — keyed by flat cell index
  (``row * width + column``), with a dense list as the running totals,
  so an estimate is ``depth`` index reads and expiring a minute is one
  subtract-and-drop, O(non-zero cells of that minute).
* :class:`TopKPathSummary` (``topk`` mode) — hot paths live in a
  :class:`SpaceSavingTopK` (near-exact, per-entry error bound), the tail
  in the count-min sketch, and a key-less ring keeps the *exact*
  per-minute mass that anchors the probability denominator, so hot-path
  causal probabilities stay within :data:`HOT_PATH_PROBABILITY_EPSILON`
  of the exact tier.  That mass is also the sample-flow signal
  (``sample_total_between``) every tier answers exactly.
* :class:`SpaceSavingTopK` stays entry-major: each monitored key carries
  its own per-minute counts (plus a shared epoch → keys index for
  expiry), because an eviction must drop a key's whole history in O(1);
  on the ring it would cost a visit to every live minute.

Tier protocol
-------------

The three tiers the profiler can hold answer the same calls:
``record(key, count, t)``, ``counts(keys, now)``,
``counts_between(keys, start, end)``, ``sample_total_between(start,
end)``, ``events()`` (what the tier can still attribute to a path, as
``(epoch, key, count)`` in minute order — a mode switch replays it into
the new tier), ``merge(other)``, ``evictions``,
``probability_error_bound()`` and ``to_state()`` / ``from_state()``.

Window rule
-----------

Counts land in ``int(time_minutes)`` minutes, and a minute expires —
whole, for every key at once — when the window is advanced to a time it
is *strictly* older than ``time - window_minutes`` of (a minute exactly
on the horizon is still inside).  ``record`` and ``counts`` advance;
``counts_between`` does not.  So a read at a time earlier than one the
window has already been shown sees the window ending at the newest time
shown; every caller under ``src/`` reads at a monotone clock.

Mergeability
------------

Every summary here is a *mergeable summary*: per-worker instances built
over a partition of one record stream fold into a single instance whose
estimates match a summary of the whole stream (the ring and count-min
exactly, by linearity; space-saving within the absent side's floor — see
:meth:`SpaceSavingTopK.merge`).  Merges are minute-aligned (they land in
past minutes, which the ring sorts back into place) so the sliding
window keeps expiring correctly afterwards, and deterministic (sorted
union order, ``(total, key)`` eviction tiebreak) so parallel sweeps stay
reproducible.  This is what lets the parallel experiment runner keep
``--profiler-mode topk`` instead of forcing exact mode per worker.

Error model
-----------

For a window holding ``N`` recorded completions:

* a space-saving entry overestimates its true count by at most
  ``entry.error`` (set at promotion time from the evidence available:
  the evicted minimum and the count-min estimate it inherited);
* a count-min estimate overestimates by at most ``e·N_tail/width`` with
  probability ``1 - e^-depth`` (``N_tail`` = tail mass in the sketch);
* :meth:`TopKPathSummary.counts` pins the *sum* of the returned
  estimates to the exact windowed total, so a hot path's causal
  probability error is bounded by ``entry.error / N`` — with the default
  ``k`` this stays under :data:`HOT_PATH_PROBABILITY_EPSILON` for any
  workload whose hot paths are genuinely hot (Zipf-like traffic).
"""

from __future__ import annotations

import zlib
from collections import OrderedDict, defaultdict
from typing import Dict, Hashable, Iterable, Iterator, List, Optional, Tuple

from repro.errors import ProfilingError

#: Default number of hot paths tracked near-exactly in ``topk`` mode.
DEFAULT_TOPK_K = 128

#: Default count-min geometry for the tail residual.
DEFAULT_CMS_WIDTH = 512
DEFAULT_CMS_DEPTH = 4

#: Documented bound on ``|p_topk(path) - p_exact(path)|`` for hot paths
#: (the top-k paths by true count) under the default sketch geometry.
#: The property tests in ``tests/profiling`` pin this across 25 seeds of
#: Zipf and flash-crowd traffic; the gated benchmark re-measures it at
#: 10k+ paths.
HOT_PATH_PROBABILITY_EPSILON = 0.05

#: Per-row hash salts (golden-ratio multiples; crc32 starting values).
_SALTS = tuple((0x9E3779B9 * (row + 1)) & 0xFFFFFFFF for row in range(8))


def _epoch_of(time_minutes: float) -> int:
    """The per-minute bucket a record at ``time_minutes`` lands in."""
    return int(time_minutes)


class WindowedCounts:
    """The sliding window: ``epoch → {key: count}``, oldest minute first.

    The one place that knows how a minute enters and leaves the window.
    Besides the per-minute tables it keeps a per-minute *mass* (each
    :meth:`add` counts once, however many keys it touches — a completion
    filed under three components is still one completion), running
    per-key :attr:`totals` over the live minutes and their :attr:`total`
    mass.  ``totals`` may be any container indexable by key that answers
    ``+=`` on a missing key: the default grows on first touch and never
    drops a key (so a key keeps its first-touch position when its total
    returns to zero — callers sum floats in that order); the count-min
    sketch hands in a dense list.

    Expiry rule: :meth:`advance` drops whole minutes *strictly* older
    than ``now - window_minutes``, from the front; nothing else expires.
    A read at a time earlier than one already shown therefore sees the
    window ending at the newest time shown, not its own.
    """

    __slots__ = ("window_minutes", "epochs", "mass", "totals", "total")

    def __init__(self, window_minutes: float, totals=None) -> None:
        if window_minutes <= 0:
            raise ProfilingError(f"window_minutes must be positive, got {window_minutes}")
        self.window_minutes = float(window_minutes)
        self.epochs: "OrderedDict[int, Dict[Hashable, int]]" = OrderedDict()
        self.mass: Dict[int, int] = {}
        self.totals = defaultdict(int) if totals is None else totals
        self.total = 0

    def advance(self, time_minutes: float) -> None:
        """Expire minutes strictly older than the window ending now."""
        horizon = time_minutes - self.window_minutes
        epochs = self.epochs
        while epochs:
            oldest = next(iter(epochs))
            if oldest >= horizon:
                break
            totals = self.totals
            for key, count in epochs.pop(oldest).items():
                totals[key] -= count
            self.total -= self.mass.pop(oldest)

    def _minute(self, epoch: int) -> Dict[Hashable, int]:
        """Open minute ``epoch``, sorted into place if it arrives late
        (:meth:`advance` pops from the front)."""
        late = bool(self.epochs) and epoch < next(reversed(self.epochs))
        table = self.epochs[epoch] = {}
        self.mass[epoch] = 0
        if late:
            self.epochs = OrderedDict(sorted(self.epochs.items()))
        return table

    def add(self, keys: Iterable[Hashable], count: int, time_minutes: float) -> None:
        """Count ``count`` under every key, once in the minute's mass."""
        # The profiler's hot path: spelled out rather than routed through
        # put(), which costs a third of a record at one key per call.
        self.advance(time_minutes)
        epoch = int(time_minutes)
        table = self.epochs.get(epoch)
        if table is None:
            table = self._minute(epoch)
        totals = self.totals
        for key in keys:
            table[key] = table.get(key, 0) + count
            totals[key] += count
        self.mass[epoch] += count
        self.total += count

    def put(self, epoch: int, cells: Iterable[Tuple[Hashable, int]], mass: int) -> None:
        """Add ``cells`` and ``mass`` to minute ``epoch`` without expiring:
        merges and restores land in past minutes."""
        table = self.epochs.get(epoch)
        if table is None:
            table = self._minute(epoch)
        totals = self.totals
        for key, count in cells:
            table[key] = table.get(key, 0) + count
            totals[key] += count
        self.mass[epoch] += mass
        self.total += mass

    def between(self, start_minutes: float, end_minutes: float) -> Dict[Hashable, int]:
        """Per-key counts over the live minutes in ``[start, end]``."""
        out: Dict[Hashable, int] = {}
        for epoch, table in self.epochs.items():
            if start_minutes <= epoch <= end_minutes:
                for key, count in table.items():
                    out[key] = out.get(key, 0) + count
        return out

    def mass_between(self, start_minutes: float, end_minutes: float) -> int:
        return sum(m for e, m in self.mass.items() if start_minutes <= e <= end_minutes)

    def merge(self, other: "WindowedCounts") -> None:
        """Fold ``other`` in minute by minute, so expiry keeps working."""
        if other.window_minutes != self.window_minutes:
            raise ProfilingError(
                "cannot merge windows of different length: "
                f"{self.window_minutes} vs {other.window_minutes}"
            )
        for epoch, table in other.epochs.items():
            self.put(epoch, table.items(), other.mass[epoch])

    def to_state(self) -> Tuple[List[object], List[Tuple[int, int]]]:
        """The ``(cells, mass)`` pair the checkpoint formats embed."""
        cells = [[epoch, sorted(table.items())] for epoch, table in self.epochs.items()]
        return cells, sorted(self.mass.items())

    def load(self, cells, mass) -> None:
        """Inverse of :meth:`to_state` (into an empty window)."""
        tables = {int(epoch): items for epoch, items in cells}
        for epoch, count in mass:
            self.put(int(epoch), tables.get(int(epoch), ()), int(count))


class ExactPathWindow:
    """The ``exact`` tier: the window keyed by path id, nothing estimated."""

    __slots__ = ("ring",)
    evictions = 0

    def __init__(self, window_minutes: float = 60.0) -> None:
        self.ring = WindowedCounts(window_minutes)

    def record(self, key: str, count: int, time_minutes: float) -> None:
        self.ring.add((key,), count, time_minutes)

    def counts(self, keys: Iterable[str], now_minutes: float) -> Dict[str, int]:
        """Every key (zeros included, in ``keys`` order) over the window."""
        ring = self.ring
        ring.advance(now_minutes)
        if ring.epochs and now_minutes < next(reversed(ring.epochs)):
            # A read into the past cannot use the running totals.
            return self.counts_between(keys, now_minutes - ring.window_minutes, now_minutes)
        out = dict.fromkeys(keys, 0)
        out.update(ring.totals)
        return out

    def counts_between(
        self, keys: Iterable[str], start_minutes: float, end_minutes: float
    ) -> Dict[str, int]:
        out = dict.fromkeys(keys, 0)
        out.update(self.ring.between(start_minutes, end_minutes))
        return out

    def sample_total_between(self, start_minutes: float, end_minutes: float) -> int:
        return self.ring.mass_between(start_minutes, end_minutes)

    def probability_error_bound(self) -> float:
        return 0.0

    def events(self) -> Iterator[Tuple[int, str, int]]:
        """Every cell as ``(epoch, key, count)``, in ``(epoch, key)`` order."""
        for epoch, table in self.ring.epochs.items():
            for key, count in sorted(table.items()):
                yield epoch, key, count

    def merge(self, other: "ExactPathWindow") -> None:
        self.ring.merge(other.ring)

    def to_state(self) -> Dict[str, List[List[int]]]:
        """Key-major ``{key: [[epoch, count], ...]}`` — the checkpoint's
        ``"buckets"``, a transposition of the ring."""
        out: Dict[str, List[List[int]]] = {}
        for epoch, key, count in self.events():
            out.setdefault(key, []).append([epoch, count])
        return out

    @classmethod
    def from_state(cls, state: Dict[str, object], window_minutes: float) -> "ExactPathWindow":
        tier = cls(window_minutes)
        for key, buckets in state.items():
            for epoch, count in buckets:
                tier.ring.put(int(epoch), ((key, int(count)),), int(count))
        return tier


class WindowedCountMinSketch:
    """Count-min sketch over the sliding window, keyed by flat cell index.

    The window's running totals *are* the aggregate table (a dense list,
    so :meth:`estimate` stays O(depth) index reads); the per-minute
    (sparse) tables exist so expiring a minute is one subtract-and-drop,
    O(non-zero cells of that minute).
    """

    __slots__ = ("width", "depth", "ring", "_salt_bases")

    def __init__(
        self,
        window_minutes: float,
        width: int = DEFAULT_CMS_WIDTH,
        depth: int = DEFAULT_CMS_DEPTH,
    ) -> None:
        if width < 8:
            raise ProfilingError(f"count-min width must be >= 8, got {width}")
        if not 1 <= depth <= len(_SALTS):
            raise ProfilingError(f"count-min depth must be in [1, {len(_SALTS)}], got {depth}")
        self.width = int(width)
        self.depth = int(depth)
        self.ring = WindowedCounts(window_minutes, totals=[0] * (self.width * self.depth))
        # (salt, row offset) pairs, precomputed so the read loop does no
        # per-row arithmetic beyond the hash itself.
        self._salt_bases: Tuple[Tuple[int, int], ...] = tuple(
            (_SALTS[row], row * self.width) for row in range(self.depth)
        )

    @property
    def total(self) -> int:
        """Windowed tail mass (sum of all counts currently in the ring)."""
        return self.ring.total

    def _indexes(self, key: str) -> List[int]:
        data = key.encode("utf-8")
        width = self.width
        return [
            base + (zlib.crc32(data, salt) % width) for salt, base in self._salt_bases
        ]

    def advance(self, time_minutes: float) -> None:
        self.ring.advance(time_minutes)

    def add(self, key: str, count: int, time_minutes: float) -> None:
        self.ring.add(self._indexes(key), count, time_minutes)

    def estimate(self, key: str) -> int:
        """Windowed count estimate (never an underestimate)."""
        agg = self.ring.totals
        width = self.width
        data = key.encode("utf-8")
        best = -1
        for salt, base in self._salt_bases:
            value = agg[base + zlib.crc32(data, salt) % width]
            if value == 0:
                # A zero row is exact: the key has no in-window mass.
                return 0
            if best < 0 or value < best:
                best = value
        return best

    def estimate_between(self, key: str, start_minutes: float, end_minutes: float) -> int:
        """Estimate over the sub-range ``start <= minute <= end``."""
        idxs = self._indexes(key)
        total = 0
        for epoch, table in self.ring.epochs.items():
            if start_minutes <= epoch <= end_minutes:
                total += min(table.get(idx, 0) for idx in idxs)
        return total

    def merge(self, other: "WindowedCountMinSketch") -> None:
        """Fold ``other`` into this sketch by epoch-aligned table addition.

        Count-min is linear: cell-wise addition of two sketches with the
        same geometry (width, depth — and therefore the same salt rows)
        yields *exactly* the sketch of the concatenated streams, so a
        per-worker partition of a record stream merges without any added
        error.
        """
        if (other.width, other.depth) != (self.width, self.depth):
            raise ProfilingError(
                "cannot merge count-min sketches of different geometry: "
                f"{self.width}x{self.depth} vs {other.width}x{other.depth}"
            )
        self.ring.merge(other.ring)

    # -- persistence (checkpoint format v2) ------------------------------------

    def to_state(self) -> Dict[str, object]:
        cells, mass = self.ring.to_state()
        return {"width": self.width, "depth": self.depth, "epochs": cells, "epoch_totals": mass}

    @classmethod
    def from_state(cls, state: Dict[str, object], window_minutes: float) -> "WindowedCountMinSketch":
        sketch = cls(window_minutes, width=int(state["width"]), depth=int(state["depth"]))
        sketch.ring.load(state["epochs"], state["epoch_totals"])
        return sketch


class _TopKEntry:
    """One monitored hot path: windowed total + per-epoch ring + error."""

    __slots__ = ("key", "total", "error", "epochs")

    def __init__(self, key: str, error: int = 0) -> None:
        self.key = key
        self.total = 0
        #: Upper bound on how much ``total`` overestimates the true
        #: windowed count (inherited history at promotion time).
        self.error = int(error)
        self.epochs: "OrderedDict[int, int]" = OrderedDict()

    def total_between(self, start_minutes: float, end_minutes: float) -> int:
        return sum(c for e, c in self.epochs.items() if start_minutes <= e <= end_minutes)


class SpaceSavingTopK:
    """Space-saving summary of the ``k`` heaviest keys in the window.

    The shared epoch → keys index makes the window advance proportional
    to the number of (entry, expiring-minute) pairs, not to ``k``.
    Eviction picks the minimum windowed total with a deterministic
    ``(total, key)`` tiebreak so seeded runs are reproducible.
    """

    __slots__ = ("k", "window_minutes", "_entries", "_epoch_keys", "evictions")

    def __init__(self, k: int, window_minutes: float) -> None:
        if k < 1:
            raise ProfilingError(f"top-k size must be >= 1, got {k}")
        if window_minutes <= 0:
            raise ProfilingError(f"window_minutes must be positive, got {window_minutes}")
        self.k = int(k)
        self.window_minutes = float(window_minutes)
        self._entries: Dict[str, _TopKEntry] = {}
        self._epoch_keys: "OrderedDict[int, List[str]]" = OrderedDict()
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str) -> Optional[_TopKEntry]:
        return self._entries.get(key)

    def entries(self) -> Iterable[_TopKEntry]:
        return self._entries.values()

    def advance(self, time_minutes: float) -> None:
        horizon = time_minutes - self.window_minutes
        while self._epoch_keys:
            oldest = next(iter(self._epoch_keys))
            if oldest >= horizon:
                break
            for key in self._epoch_keys.pop(oldest):
                entry = self._entries.get(key)
                if entry is not None:
                    expired = entry.epochs.pop(oldest, None)
                    if expired is not None:
                        entry.total -= expired

    def increment(self, key: str, count: int, time_minutes: float) -> bool:
        """Add ``count`` if ``key`` is monitored; report whether it was."""
        entry = self._entries.get(key)
        if entry is None:
            return False
        self._bump(entry, count, _epoch_of(time_minutes))
        return True

    def _bump(self, entry: _TopKEntry, count: int, epoch: int) -> None:
        if epoch in entry.epochs:
            entry.epochs[epoch] += count
        else:
            entry.epochs[epoch] = count
            keys = self._epoch_keys.get(epoch)
            if keys is None:
                self._epoch_keys[epoch] = [entry.key]
            else:
                keys.append(entry.key)
        entry.total += count

    def insert(self, key: str, total: int, error: int, time_minutes: float) -> _TopKEntry:
        """Start monitoring ``key`` (caller evicts first when full)."""
        entry = _TopKEntry(key, error=error)
        self._entries[key] = entry
        if total > 0:
            self._bump(entry, total, _epoch_of(time_minutes))
        return entry

    def min_entry(self) -> _TopKEntry:
        return min(self._entries.values(), key=lambda e: (e.total, e.key))

    def evict(self, key: str) -> None:
        # Stale references left in the epoch index are skipped by the
        # `entries.get` guard in advance().
        del self._entries[key]
        self.evictions += 1

    def max_error(self) -> int:
        if not self._entries:
            return 0
        return max(entry.error for entry in self._entries.values())

    def merge(self, other: "SpaceSavingTopK") -> None:
        """Fold ``other`` into this summary (mergeable-summaries union).

        Keys are unioned with their per-epoch rings added minute by
        minute, then the union is evicted back down to ``k`` smallest
        first under the deterministic ``(total, key)`` tiebreak — so the
        merged result is independent of merge order beyond the summable
        state itself.  A key one side never monitored may have been
        absorbed into that side's unmonitored mass; its true count there
        is bounded by that side's minimum total when the side is full,
        and is exactly zero when the side still has spare capacity
        (space-saving monitors every key it sees until ``k`` are live).
        That bound is added to ``entry.error``, which after a merge
        therefore bounds ``|total - true|`` in *both* directions: the
        per-epoch rings stay pure (no phantom mass is injected into any
        minute), at the cost of a possible bounded underestimate for
        keys hot on only one side.
        """
        if other.k != self.k:
            raise ProfilingError(
                f"cannot merge top-k summaries of different k: {self.k} vs {other.k}"
            )
        if other.window_minutes != self.window_minutes:
            raise ProfilingError(
                "cannot merge top-k summaries with different windows: "
                f"{self.window_minutes} vs {other.window_minutes}"
            )
        self_floor = (
            self.min_entry().total if len(self._entries) >= self.k else 0
        )
        other_floor = (
            other.min_entry().total if len(other._entries) >= other.k else 0
        )
        for key in sorted(set(self._entries) | set(other._entries)):
            mine = self._entries.get(key)
            theirs = other._entries.get(key)
            if mine is None:
                mine = _TopKEntry(key, error=theirs.error + self_floor)
                self._entries[key] = mine
                for epoch, count in theirs.epochs.items():
                    self._bump(mine, count, epoch)
            elif theirs is None:
                mine.error += other_floor
            else:
                mine.error += theirs.error
                for epoch, count in theirs.epochs.items():
                    self._bump(mine, count, epoch)
        while len(self._entries) > self.k:
            self.evict(self.min_entry().key)
        self.evictions += other.evictions
        # Restore the chronological order the window advance relies on.
        self._epoch_keys = OrderedDict(sorted(self._epoch_keys.items()))

    # -- persistence (checkpoint format v2) ------------------------------------

    def to_state(self) -> Dict[str, object]:
        return {
            "k": self.k,
            "evictions": self.evictions,
            "entries": [
                {
                    "key": entry.key,
                    "error": entry.error,
                    "epochs": list(entry.epochs.items()),
                }
                for entry in sorted(self._entries.values(), key=lambda e: e.key)
            ],
        }

    @classmethod
    def from_state(cls, state: Dict[str, object], window_minutes: float) -> "SpaceSavingTopK":
        summary = cls(int(state["k"]), window_minutes)
        summary.evictions = int(state.get("evictions", 0))
        for spec in state["entries"]:
            entry = _TopKEntry(str(spec["key"]), error=int(spec["error"]))
            summary._entries[entry.key] = entry
            for epoch, count in spec["epochs"]:
                summary._bump(entry, int(count), int(epoch))
        return summary


class TopKPathSummary:
    """The profiler's ``topk`` tier: hot paths exact-ish, tail sketched.

    A record goes to the space-saving summary when its path is already
    monitored; otherwise it lands in the count-min tail, and the path is
    promoted into the summary when its tail estimate overtakes the
    current minimum (the classic space-saving admission rule).  A
    key-less window (:attr:`flow`) keeps the exact per-minute mass
    alongside so reads can pin the probability denominator — see
    :meth:`counts`.
    """

    __slots__ = ("window_minutes", "topk", "cms", "flow")

    def __init__(self, k: int = DEFAULT_TOPK_K, window_minutes: float = 60.0) -> None:
        self.window_minutes = float(window_minutes)
        self.topk = SpaceSavingTopK(k, window_minutes)
        self.cms = WindowedCountMinSketch(window_minutes)
        # Exact mass per epoch: O(window) integers, regardless of path
        # cardinality.
        self.flow = WindowedCounts(window_minutes)

    @property
    def evictions(self) -> int:
        return self.topk.evictions

    @property
    def sample_total(self) -> int:
        """Exact number of completions in the window."""
        return self.flow.total

    def advance(self, time_minutes: float) -> None:
        self.topk.advance(time_minutes)
        self.cms.advance(time_minutes)
        self.flow.advance(time_minutes)

    def record(self, key: str, count: int, time_minutes: float) -> None:
        self.advance(time_minutes)
        self.flow.put(_epoch_of(time_minutes), (), count)
        if self.topk.increment(key, count, time_minutes):
            return
        self.cms.add(key, count, time_minutes)
        estimate = self.cms.estimate(key)
        if len(self.topk) < self.topk.k:
            self.topk.insert(key, estimate, max(0, estimate - count), time_minutes)
            return
        floor = self.topk.min_entry()
        if estimate > floor.total:
            self.topk.evict(floor.key)
            self.topk.insert(
                key, estimate, max(floor.total, estimate - count), time_minutes
            )

    # -- reads -------------------------------------------------------------------

    def sample_total_between(self, start_minutes: float, end_minutes: float) -> int:
        """Exact number of recorded completions in ``[start, end]``."""
        return self.flow.mass_between(start_minutes, end_minutes)

    def counts(self, keys: Iterable[str], now_minutes: float) -> Dict[str, int]:
        """Windowed estimates for ``keys``, summing to the exact total.

        Monitored paths report their space-saving totals; the remaining
        (exact) mass is apportioned over the tail by count-min estimate,
        so ``causal_probabilities`` downstream sees a denominator equal
        to the true windowed total and hot-path probabilities inherit
        only the space-saving per-entry error.
        """
        self.advance(now_minutes)
        return self._estimates(
            keys,
            monitored=lambda entry: entry.total,
            tail=self.cms.estimate,
            exact_total=self.sample_total,
        )

    def counts_between(
        self, keys: Iterable[str], start_minutes: float, end_minutes: float
    ) -> Dict[str, int]:
        return self._estimates(
            keys,
            monitored=lambda entry: entry.total_between(start_minutes, end_minutes),
            tail=lambda key: self.cms.estimate_between(key, start_minutes, end_minutes),
            exact_total=self.sample_total_between(start_minutes, end_minutes),
        )

    def _estimates(self, keys, monitored, tail, exact_total) -> Dict[str, int]:
        out: Dict[str, int] = {}
        tail_keys: List[str] = []
        tail_estimates: List[int] = []
        hot_mass = 0
        entry_of = self.topk._entries.get
        for key in keys:
            entry = entry_of(key)
            if entry is not None:
                value = monitored(entry)
                out[key] = value
                hot_mass += value
            else:
                out[key] = 0
                estimate = tail(key)
                if estimate > 0:
                    tail_keys.append(key)
                    tail_estimates.append(estimate)
        residual = max(0, exact_total - hot_mass)
        if residual and tail_keys:
            # Cumulative integer apportionment: key i gets
            # floor(cum_i·residual/total) − floor(cum_{i-1}·residual/total),
            # which telescopes to exactly ``residual`` (no per-key rounding
            # drift), keeps every share within 1 of its proportional value,
            # and needs one O(tail) pass — no sort.
            total_estimate = sum(tail_estimates)
            cum = 0
            prev_share = 0
            for key, estimate in zip(tail_keys, tail_estimates):
                cum += estimate
                share = cum * residual // total_estimate
                out[key] = share - prev_share
                prev_share = share
        return out

    def probability_error_bound(self) -> float:
        """Worst-case hot-path probability overestimate right now."""
        return self.topk.max_error() / max(1, self.sample_total)

    def events(self) -> List[Tuple[int, str, int]]:
        """The monitored entries' cells in ``(epoch, key)`` order; the
        count-min tail cannot be attributed to a key and is not replayed."""
        return sorted(
            (epoch, entry.key, count)
            for entry in self.topk.entries()
            for epoch, count in entry.epochs.items()
        )

    def merge(self, other: "TopKPathSummary") -> None:
        """Fold a peer summary (e.g. another worker's) into this one.

        All three constituents merge independently: the space-saving
        union re-evicts to ``k`` deterministically, the count-min tables
        add exactly (linearity), and the exact per-epoch mass adds
        minute by minute — so :meth:`counts` keeps pinning the merged
        estimates to the *combined* exact windowed total.
        """
        if other.window_minutes != self.window_minutes:
            raise ProfilingError(
                "cannot merge path summaries with different windows: "
                f"{self.window_minutes} vs {other.window_minutes}"
            )
        self.topk.merge(other.topk)
        self.cms.merge(other.cms)
        self.flow.merge(other.flow)

    # -- persistence (checkpoint format v2) ------------------------------------

    def to_state(self) -> Dict[str, object]:
        return {
            "topk": self.topk.to_state(),
            "cms": self.cms.to_state(),
            "sample_epochs": self.flow.to_state()[1],
        }

    @classmethod
    def from_state(cls, state: Dict[str, object], window_minutes: float) -> "TopKPathSummary":
        summary = cls(k=int(state["topk"]["k"]), window_minutes=window_minutes)
        summary.topk = SpaceSavingTopK.from_state(state["topk"], window_minutes)
        summary.cms = WindowedCountMinSketch.from_state(state["cms"], window_minutes)
        summary.flow.load((), state["sample_epochs"])
        return summary


class ComponentActivitySummary:
    """The ``component`` tier: the window keyed by component name.

    The cheapest precision level — memory is O(components × window) and
    entirely independent of path cardinality.  ``weights`` divides each
    component's touch count by the exact number of recorded completions
    (the window's mass), matching the ``w_c`` the DCA manager derives
    from per-path causal probabilities (a completion touching a
    component contributes its full probability mass either way).
    """

    __slots__ = ("ring",)
    evictions = 0

    def __init__(self, window_minutes: float = 60.0) -> None:
        self.ring = WindowedCounts(window_minutes)

    @property
    def request_total(self) -> int:
        return self.ring.total

    def advance(self, time_minutes: float) -> None:
        self.ring.advance(time_minutes)

    def record(self, components: Iterable[str], count: int, time_minutes: float) -> None:
        self.ring.add(components, count, time_minutes)

    def totals(self, now_minutes: float) -> Dict[str, int]:
        """Live components in first-touch order (callers sum in it)."""
        self.ring.advance(now_minutes)
        return {comp: total for comp, total in self.ring.totals.items() if total > 0}

    def counts(self, keys: Iterable[str], now_minutes: float) -> Dict[str, int]:
        """Tier protocol: ``keys`` name paths, which this tier collapsed."""
        return self.totals(now_minutes)

    def counts_between(
        self, keys: Iterable[str], start_minutes: float, end_minutes: float
    ) -> Dict[str, int]:
        return self.ring.between(start_minutes, end_minutes)

    def sample_total_between(self, start_minutes: float, end_minutes: float) -> int:
        return self.ring.mass_between(start_minutes, end_minutes)

    def probability_error_bound(self) -> float:
        return 0.0

    def events(self) -> Tuple[()]:
        """Nothing to replay: per-path identity was collapsed on record."""
        return ()

    def weights(self, now_minutes: float) -> Dict[str, float]:
        """``w_c`` estimates: fraction of completions touching ``c``."""
        totals = self.totals(now_minutes)
        if self.request_total <= 0:
            return {}
        return {comp: count / self.request_total for comp, count in totals.items()}

    def merge(self, other: "ComponentActivitySummary") -> None:
        """Fold a peer summary in by per-epoch component-table addition."""
        self.ring.merge(other.ring)

    # -- persistence (checkpoint format v2) ------------------------------------

    def to_state(self) -> Dict[str, object]:
        cells, mass = self.ring.to_state()
        return {"epochs": cells, "epoch_requests": mass}

    @classmethod
    def from_state(cls, state: Dict[str, object], window_minutes: float) -> "ComponentActivitySummary":
        summary = cls(window_minutes)
        summary.ring.load(state["epochs"], state["epoch_requests"])
        return summary
