"""The profiler's sliding window and the two ways the profiler keys it.

The paper has one window — causal probability is a path's share of the
completions counted "over a sliding (60-minute, configurable) window" —
and so does this module: :class:`WindowedCounts`, a ring of per-minute
``{key: count}`` tables with a per-minute *mass*, running per-key totals
and one total.  It is the only place that knows how a minute enters and
leaves the window; the two tiers the profiler can be built with only say
what they key the ring by:

* :class:`ExactPathWindow` (``exact`` mode, the default) — keyed by path
  id.  Memory is one cell per (path, minute) actually recorded.
* :class:`ComponentActivitySummary` (``component`` mode, in the spirit of
  D²ABS's coarsest cost-effectiveness level) — keyed by component name;
  a completion is filed under every component on its path and counts
  once in the mass.

Both answer ``record(key, count, t)``, ``counts(keys, now)``,
``counts_between(keys, start, end)``, ``sample_total_between(start,
end)``, ``merge(other)`` and ``to_state()`` / ``from_state()``.  The
mass is the exact sample-flow signal staleness detection reads in
either mode.

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

Per-worker windows built over a partition of one record stream fold into
a window equal to one built over the whole stream (counts add).  Merges
are minute-aligned (they land in past minutes, which the ring sorts back
into place), so the sliding window keeps expiring correctly afterwards.
This is what lets the parallel experiment runner merge per-worker
profilers in either mode.
"""

from __future__ import annotations

from collections import OrderedDict, defaultdict
from typing import Dict, Hashable, Iterable, List, Tuple

from repro.errors import ProfilingError

class WindowedCounts:
    """The sliding window: ``epoch → {key: count}``, oldest minute first.

    The one place that knows how a minute enters and leaves the window.
    Besides the per-minute tables it keeps a per-minute *mass* (each
    :meth:`add` counts once, however many keys it touches — a completion
    filed under three components is still one completion), running
    per-key :attr:`totals` over the live minutes and their :attr:`total`
    mass.  ``totals`` grows on first touch and never drops a key (so a
    key keeps its first-touch position when its total returns to zero —
    callers sum floats in that order).

    Expiry rule: :meth:`advance` drops whole minutes *strictly* older
    than ``now - window_minutes``, from the front; nothing else expires.
    A read at a time earlier than one already shown therefore sees the
    window ending at the newest time shown, not its own.
    """

    __slots__ = ("window_minutes", "epochs", "mass", "totals", "total")

    def __init__(self, window_minutes: float) -> None:
        if window_minutes <= 0:
            raise ProfilingError(f"window_minutes must be positive, got {window_minutes}")
        self.window_minutes = float(window_minutes)
        self.epochs: "OrderedDict[int, Dict[Hashable, int]]" = OrderedDict()
        self.mass: Dict[int, int] = {}
        self.totals: Dict[Hashable, int] = defaultdict(int)
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

    def merge(self, other: "ExactPathWindow") -> None:
        self.ring.merge(other.ring)

    def to_state(self) -> Dict[str, List[List[int]]]:
        """Key-major ``{key: [[epoch, count], ...]}`` — the checkpoint's
        ``"buckets"``, a transposition of the ring."""
        out: Dict[str, List[List[int]]] = {}
        for epoch, table in self.ring.epochs.items():
            for key, count in sorted(table.items()):
                out.setdefault(key, []).append([epoch, count])
        return out

    @classmethod
    def from_state(cls, state: Dict[str, object], window_minutes: float) -> "ExactPathWindow":
        tier = cls(window_minutes)
        for key, buckets in state.items():
            for epoch, count in buckets:
                tier.ring.put(int(epoch), ((key, int(count)),), int(count))
        return tier


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
