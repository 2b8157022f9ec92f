"""The causal-path profiler (Section IV-B/IV-C of the paper).

The profiler runs on a monitoring host *external to the application*.
It is seeded with every statically identified causal path (count zero);
whenever the graph store completes a causal graph, the path's counter is
incremented.  Counts are kept in a sliding time window (60 minutes by
default, "configurable") and feed causal probability.

The window itself is :class:`~repro.profiling.sketches.WindowedCounts`
(one ring of per-minute tables; a minute expires whole once the window
is advanced past it).  The profiler holds exactly one *tier* over it and
forwards ``record`` / ``counts`` / ``counts_between`` /
``sample_total_between`` / ``merge`` to it; the precision mode only says
which tier that is, and is switchable at runtime (the staleness detector
uses this to shed cost under load — see
``StalenessPolicy.downshift_mode``) by swapping the tier and replaying
the old one's ``events()`` into the new one:

``exact``
    The default (:class:`~repro.profiling.sketches.ExactPathWindow`):
    the ring keyed by path id, every registered path listed in
    registration order.  ``counts()`` copies the ring's running totals,
    so it is O(paths), not O(paths × window).
``topk``
    Bounded memory: the ``k`` hottest paths live in a windowed
    space-saving summary, the tail in a windowed count-min sketch, and
    reads pin the estimate sum to the exact windowed total so hot-path
    causal probabilities stay within the documented ε of exact mode
    (:data:`~repro.profiling.sketches.HOT_PATH_PROBABILITY_EPSILON`).
``component``
    The cheapest tier (D²ABS-style coarsest level): the ring keyed by
    component name; ``counts()``/``counts_between()`` are keyed by
    *component name* and :meth:`component_weight_estimates` feeds the
    manager directly.

What is left of the mode outside the tier is what is *about* the mode:
the component tier files a path under its components, per-path telemetry
is an exact-tier export, ``component_weight_estimates`` validates its
caller, and the checkpoint names which state slot it wrote.

Per-path completion counters (``profiler.path_completions{path=…}``) are
an exact-tier export: sketch modes deliberately do not keep per-path
telemetry (that would reintroduce O(paths) state).  Sketch health is
exported instead via the ``profiler.sketch_evictions`` and
``profiler.estimate_error`` gauges.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

from repro.core.paths import PathSignature
from repro.errors import ProfilingError
from repro.profiling.sketches import (
    DEFAULT_TOPK_K,
    ComponentActivitySummary,
    ExactPathWindow,
    TopKPathSummary,
)
from repro.telemetry import MetricsRegistry, get_registry

#: Precision tiers, cheapest last.  ``exact`` is the bit-identical
#: default; the others trade per-path fidelity for bounded memory.
PROFILER_MODES: Tuple[str, ...] = ("exact", "topk", "component")

#: The checkpoint slot each tier's ``to_state()`` is written to.
_STATE_SLOT = {"exact": "buckets", "topk": "sketch", "component": "components"}
_TIER_CLASS = {
    "exact": ExactPathWindow,
    "topk": TopKPathSummary,
    "component": ComponentActivitySummary,
}
PathTier = Union[ExactPathWindow, TopKPathSummary, ComponentActivitySummary]


@dataclass(frozen=True)
class ProfileSnapshot:
    """Path counts (and derived totals) at a point in time."""

    time_minutes: float
    window_minutes: float
    counts: Mapping[str, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())


class CausalPathProfiler:
    """Sliding-window per-path counters seeded from static enumeration.

    Parameters
    ----------
    static_paths:
        Request type → statically enumerated signatures; all are
        registered with zero counts ("we store information about these
        paths in the profiler … with their respective path counts set to
        zero").
    window_minutes:
        Length of the causal-probability history window.
    registry:
        Telemetry registry for the profiler's counters (the process
        default when omitted).  Per-signature completion counts are
        exported as ``profiler.path_completions{path=<id>}`` (exact mode
        only; see the module docstring).
    mode:
        Initial precision mode, one of :data:`PROFILER_MODES`.
    topk:
        Space-saving summary size for ``topk`` mode.
    """

    def __init__(
        self,
        static_paths: Mapping[str, Iterable[PathSignature]],
        window_minutes: float = 60.0,
        registry: Optional[MetricsRegistry] = None,
        mode: str = "exact",
        topk: int = DEFAULT_TOPK_K,
    ) -> None:
        if window_minutes <= 0:
            raise ProfilingError(f"window_minutes must be positive, got {window_minutes}")
        if mode not in PROFILER_MODES:
            raise ProfilingError(
                f"unknown profiler mode {mode!r}; expected one of {PROFILER_MODES}"
            )
        if topk < 1:
            raise ProfilingError(f"topk must be >= 1, got {topk}")
        self.window_minutes = float(window_minutes)
        self.telemetry = registry if registry is not None else get_registry()
        self._m_recordings = self.telemetry.counter("profiler.recordings")
        self._m_unmatched = self.telemetry.counter("profiler.unmatched_observations")
        self._m_dynamic = self.telemetry.counter("profiler.dynamic_registrations")
        self._m_evictions = self.telemetry.gauge("profiler.sketch_evictions")
        self._m_estimate_error = self.telemetry.gauge("profiler.estimate_error")
        self._m_evictions.set(0.0)
        self._m_estimate_error.set(0.0)
        self._base_unmatched = self._m_unmatched.value
        self._base_dynamic = self._m_dynamic.value
        self._paths: Dict[str, PathSignature] = {}
        self._by_identity: Dict[Tuple[str, Tuple], str] = {}
        # Per-request-type signature lists kept sorted by edges, so
        # paths_for_request() is a lookup instead of a full-path scan.
        self._by_request: Dict[str, List[PathSignature]] = {}
        self._by_request_keys: Dict[str, List[Tuple]] = {}
        # Cached per-path completion counters, so record() never pays a
        # get-or-create registry lookup (label sorting + key render).
        self._m_completions: Dict[str, object] = {}
        self._topk_k = int(topk)
        self._components_by_pid: Dict[str, Tuple[str, ...]] = {}
        # The one windowed summary; set_mode swaps it.
        self._mode = mode
        self._tier: PathTier = self._new_tier(mode, self._topk_k)
        for req_type, signatures in sorted(static_paths.items()):
            for sig in signatures:
                self._register(sig)
        #: Minute of the most recent :meth:`record` call (``None`` until
        #: the first).  Staleness detectors use this to distinguish "no
        #: recent samples because traffic is low" from "the sampled-path
        #: feed has gone quiet" without scanning buckets.
        self.last_record_minutes: Optional[float] = None

    @property
    def mode(self) -> str:
        """The active precision mode (one of :data:`PROFILER_MODES`)."""
        return self._mode

    @property
    def topk_k(self) -> int:
        return self._topk_k

    @property
    def sketch_evictions(self) -> int:
        """Space-saving evictions since the sketch was (re)built."""
        return self._tier.evictions

    @property
    def unmatched_observations(self) -> int:
        """Observed signatures that were not statically enumerated."""
        return int(self._m_unmatched.value - self._base_unmatched)

    @property
    def dynamic_registrations(self) -> int:
        """Paths added at runtime (observed but not statically known)."""
        return int(self._m_dynamic.value - self._base_dynamic)

    # -- registration ----------------------------------------------------------

    def _register(self, signature: PathSignature) -> str:
        pid = signature.path_id
        if pid not in self._paths:
            self._paths[pid] = signature
            self._by_identity[(signature.request_type, signature.edges)] = pid
            sigs = self._by_request.get(signature.request_type)
            if sigs is None:
                self._by_request[signature.request_type] = [signature]
                self._by_request_keys[signature.request_type] = [signature.edges]
            else:
                keys = self._by_request_keys[signature.request_type]
                pos = bisect_left(keys, signature.edges)
                keys.insert(pos, signature.edges)
                sigs.insert(pos, signature)
        return pid

    def known_paths(self) -> Dict[str, PathSignature]:
        """All registered paths by id (static seeds + dynamic additions)."""
        return dict(self._paths)

    def paths_for_request(self, request_type: str) -> List[PathSignature]:
        return list(self._by_request.get(request_type, ()))

    def _components_of(self, pid: str) -> Tuple[str, ...]:
        comps = self._components_by_pid.get(pid)
        if comps is None:
            comps = tuple(sorted(self._paths[pid].components))
            self._components_by_pid[pid] = comps
        return comps

    # -- precision modes --------------------------------------------------------

    def _new_tier(self, mode: str, k: int) -> PathTier:
        if mode == "topk":
            return TopKPathSummary(k=k, window_minutes=self.window_minutes)
        return _TIER_CLASS[mode](self.window_minutes)

    def _tier_key(self, pid: str):
        """What the active tier files ``pid`` under."""
        return self._components_of(pid) if self._mode == "component" else pid

    def set_mode(self, mode: str, topk: Optional[int] = None) -> None:
        """Switch precision tier at runtime: swap the tier, replay its events.

        The new tier is fed ``old.events()`` in minute order, so what
        carries over is whatever the old tier can still attribute to a
        path: ``exact`` yields every cell (a downshift under load keeps
        the window's history instead of starting cold), ``topk`` its
        monitored entries (the count-min tail is dropped and
        re-accumulates within a window — also on a ``topk`` resize),
        ``component`` nothing (per-path identity was already collapsed,
        so whatever follows it starts empty).  ``topk`` means something
        only in ``topk`` mode: elsewhere a same-mode call records it and
        keeps the tier.
        """
        if mode not in PROFILER_MODES:
            raise ProfilingError(
                f"unknown profiler mode {mode!r}; expected one of {PROFILER_MODES}"
            )
        k = self._topk_k if topk is None else int(topk)
        if k < 1:
            raise ProfilingError(f"topk must be >= 1, got {k}")
        old_k, self._topk_k = self._topk_k, k
        if mode == self._mode and (mode != "topk" or k == old_k):
            return
        old = self._tier
        self._mode = mode
        self._tier = self._new_tier(mode, k)
        for epoch, pid, count in old.events():
            # A sketch restored from a checkpoint may monitor ids this
            # profiler never registered; they have no components to file.
            if pid in self._paths:
                self._tier.record(self._tier_key(pid), count, float(epoch))
        self._m_evictions.set(float(self._tier.evictions))

    # -- recording ---------------------------------------------------------------

    def record(self, signature: PathSignature, time_minutes: float, count: int = 1) -> str:
        """Record ``count`` completions of ``signature`` at ``time_minutes``.

        An observed signature not statically enumerated is registered
        dynamically and counted (and tallied in
        :attr:`dynamic_registrations` so tests can assert static coverage).
        """
        if count < 1:
            raise ProfilingError(f"count must be >= 1, got {count}")
        key = (signature.request_type, signature.edges)
        pid = self._by_identity.get(key)
        if pid is None:
            pid = self._register(signature)
            self._m_dynamic.inc()
            self._m_unmatched.inc()
        if self.last_record_minutes is None or time_minutes > self.last_record_minutes:
            self.last_record_minutes = float(time_minutes)
        self._tier.record(self._tier_key(pid), count, time_minutes)
        if self._mode == "exact":
            completions = self._m_completions.get(pid)
            if completions is None:
                completions = self.telemetry.counter(
                    "profiler.path_completions", labels={"path": pid}
                )
                self._m_completions[pid] = completions
            completions.inc(count)
        else:
            self._m_evictions.set(float(self._tier.evictions))
        self._m_recordings.inc(count)
        return pid

    # -- reading -----------------------------------------------------------------

    def counts(self, now_minutes: float) -> Dict[str, int]:
        """Windowed counts ending at ``now_minutes``.

        Keyed by path id in ``exact``/``topk`` mode, by component name in
        ``component`` mode.  ``topk`` values are estimates whose sum is
        pinned to the exact windowed total (see
        :class:`~repro.profiling.sketches.TopKPathSummary`).
        """
        out = self._tier.counts(self._paths, now_minutes)
        self._m_estimate_error.set(self._tier.probability_error_bound())
        return out

    def counts_between(self, start_minutes: float, end_minutes: float) -> Dict[str, int]:
        """Per-path counts in ``[start, end]`` (bounded by the window).

        Elasticity managers use a short recent horizon for the *mix*
        estimate (so they adapt to hot-path shifts) while the full window
        backs the long-term causal probabilities; both reads share the
        same minute tables.  Keyed like :meth:`counts` (component names in
        ``component`` mode).
        """
        if end_minutes < start_minutes:
            raise ProfilingError(f"empty interval [{start_minutes}, {end_minutes}]")
        return self._tier.counts_between(self._paths, start_minutes, end_minutes)

    def sample_total_between(self, start_minutes: float, end_minutes: float) -> int:
        """Exact number of recorded completions in ``[start, end]``.

        The window's per-minute mass, kept exactly by *every* tier, so
        staleness detection keeps its sample-flow signal even when
        per-path counts are sketched or collapsed to components.
        """
        if end_minutes < start_minutes:
            raise ProfilingError(f"empty interval [{start_minutes}, {end_minutes}]")
        return self._tier.sample_total_between(start_minutes, end_minutes)

    def component_weight_estimates(self, now_minutes: float) -> Dict[str, float]:
        """``component``-mode ``w_c`` estimates (touch fraction per component).

        Only meaningful in ``component`` mode — other modes derive ``w_c``
        from per-path causal probabilities.
        """
        if self._mode != "component":
            raise ProfilingError(
                f"component_weight_estimates requires component mode, profiler is in {self._mode!r}"
            )
        return self._tier.weights(now_minutes)

    def snapshot(self, now_minutes: float) -> ProfileSnapshot:
        return ProfileSnapshot(
            time_minutes=now_minutes,
            window_minutes=self.window_minutes,
            counts=self.counts(now_minutes),
        )

    # -- merging -----------------------------------------------------------------

    def merge(self, other: "CausalPathProfiler") -> None:
        """Fold a peer profiler's window state into this one.

        The profiler analogue of
        :meth:`~repro.telemetry.MetricsRegistry.merge_snapshot`: the
        parallel experiment runner builds one profiler per worker over a
        partition of the sweep and merges them back — in whatever
        precision mode the sweep asked for, instead of forcing exact.
        Both sides must share the mode and window (and ``k`` in ``topk``
        mode, which the summaries check); the tiers fold minute by
        minute via their mergeable-summary operations
        (:mod:`repro.profiling.sketches`).
        Dynamic-registration/unmatched tallies carry over; per-path ``profiler.path_completions`` counters do *not* — they
        live in each worker's telemetry registry, whose snapshot the
        runner merges separately (double-counting them here would skew
        the sweep's telemetry).
        """
        if other._mode != self._mode:
            raise ProfilingError(
                f"cannot merge profilers in different modes: {self._mode!r} vs {other._mode!r}"
            )
        if other.window_minutes != self.window_minutes:
            raise ProfilingError(
                "cannot merge profilers with different windows: "
                f"{self.window_minutes} vs {other.window_minutes}"
            )
        for sig in other._paths.values():
            self._register(sig)
        self._tier.merge(other._tier)
        self._m_evictions.set(float(self._tier.evictions))
        if other.dynamic_registrations:
            self._m_dynamic.inc(other.dynamic_registrations)
        if other.unmatched_observations:
            self._m_unmatched.inc(other.unmatched_observations)
        if other.last_record_minutes is not None and (
            self.last_record_minutes is None
            or other.last_record_minutes > self.last_record_minutes
        ):
            self.last_record_minutes = other.last_record_minutes

    # -- persistence ------------------------------------------------------------

    def to_json(self) -> str:
        """Serialise the profiler to JSON (checkpoint format v2).

        The profiler is the long-lived state of the elasticity system —
        restarting the monitoring host must not lose the causal-probability
        history, so deployments checkpoint it.  v2 carries the precision
        mode, ``last_record_minutes`` (so a restored checkpoint does not
        reset staleness detection) and any sketch state; v1 checkpoints
        (no ``version`` key) are still readable.
        """
        import json

        payload = {
            "version": 2,
            "mode": self._mode,
            "topk": self._topk_k,
            "window_minutes": self.window_minutes,
            "paths": [
                {
                    "request_type": sig.request_type,
                    "edges": [list(edge) for edge in sig.edges],
                }
                for sig in self._paths.values()
            ],
            "buckets": {pid: [] for pid in self._paths},
            "last_record_minutes": self.last_record_minutes,
            "dynamic_registrations": self.dynamic_registrations,
            "unmatched_observations": self.unmatched_observations,
            "sketch": None,
            "components": None,
        }
        state = self._tier.to_state()
        if self._mode == "exact":
            # Pid-major, every registered path present: the ring transposed.
            payload["buckets"].update(state)
        else:
            payload[_STATE_SLOT[self._mode]] = state
        return json.dumps(payload)

    @classmethod
    def from_json(
        cls, data: str, registry: Optional[MetricsRegistry] = None
    ) -> "CausalPathProfiler":
        """Restore a profiler checkpointed with :meth:`to_json`.

        Reads both checkpoint formats: v2 (current) and v1 (pre-sketch,
        identified by the missing ``version`` key — always exact mode,
        with ``last_record_minutes`` unknown).  ``registry`` scopes the
        restored profiler's instruments (the parallel runner restores
        per-worker checkpoints into private registries so the sweep's
        shared registry only sees the explicitly merged telemetry).
        """
        import json

        payload = json.loads(data)
        version = int(payload.get("version", 1))
        signatures = [
            PathSignature(
                entry["request_type"],
                tuple(tuple(edge) for edge in entry["edges"]),
            )
            for entry in payload["paths"]
        ]
        by_request: Dict[str, List[PathSignature]] = {}
        for sig in signatures:
            by_request.setdefault(sig.request_type, []).append(sig)
        mode = payload.get("mode", "exact") if version >= 2 else "exact"
        topk = int(payload.get("topk", DEFAULT_TOPK_K)) if version >= 2 else DEFAULT_TOPK_K
        profiler = cls(
            by_request,
            window_minutes=payload["window_minutes"],
            registry=registry,
            mode=mode,
            topk=topk,
        )
        for pid in payload["buckets"]:
            if pid not in profiler._paths:
                raise ProfilingError(f"checkpoint references unknown path id {pid!r}")
        state = payload.get(_STATE_SLOT[mode])
        if state is not None:
            profiler._tier = _TIER_CLASS[mode].from_state(state, profiler.window_minutes)
            profiler._m_evictions.set(float(profiler._tier.evictions))
        if version >= 2:
            last = payload.get("last_record_minutes")
            profiler.last_record_minutes = None if last is None else float(last)
        profiler._m_dynamic.inc(int(payload.get("dynamic_registrations", 0)))
        profiler._m_unmatched.inc(int(payload.get("unmatched_observations", 0)))
        return profiler
