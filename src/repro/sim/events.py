"""The ``event`` engine: the tick loop with converged-replay ingestion.

The simulator observes and acts once per monitoring interval: nothing
reads cluster, fault or tracker state between interval boundaries.  So
``engine="event"`` walks the same boundaries through the same superstep
(:meth:`~repro.sim.engine.ClusterSimulator.run_interval`) as
``engine="tick"`` and differs in exactly one thing — DCA ingestion may
go through a :class:`ReplayIngestor`, which stops re-executing a request
class through the real interpreters once its per-execution effects have
provably stopped changing.  The tick loop stays the *oracle*: simple,
obviously faithful, and O(duration x sampled traffic).

Parity contract
---------------

For any seeded configuration, ``engine="event"`` must produce results
**bit-identical** to ``engine="tick"``: the same ``IntervalRecord``
stream, the same telemetry snapshot (modulo the volatile keys below),
the same fault/recovery counters.  CI's ``engine-parity`` job enforces
this on every scenario.  Outside replay it holds because both engines
run the same code; the one rule left to maintain is that arrivals are
pre-drawn with the exact scalar RNG calls of the tick loop
(:meth:`~repro.workloads.generator.WorkloadGenerator.arrivals_series`),
which is how the set of classes that ever receive traffic is known
before the first interval runs.

Volatile telemetry keys — excluded from parity comparison *and* from
replay capture:

* keys whose base name ends in ``_seconds``: wall-clock timer
  histograms; they measure the host, not the simulation;
* keys under ``graphstore.backend_``: the persistence seam's own
  flush/fsync/rotation/byte diagnostics, which differ per backend.

Converged replay
----------------

During warmup every live trace of every class is executed for real,
and each execution is summed up from what the layers that did the work
report: (a) the telemetry delta — every non-volatile instrument's
:meth:`~repro.telemetry.metrics.Counter.change_since` its state before
the execution; (b) the trace's uid-free
:meth:`~repro.sim.runtime.RequestTrace.structural_fingerprint`; (c) the
profiler records — the ordered ``(signature, count)`` pairs
:meth:`~repro.core.causal_graph.DirectCausalityTracker.observe_all`
returns; (d) the
*ingestion residue* — a shard/batch-invariant tuple of what the
execution left behind in the write machinery (pipeline buffer depth,
pending completions, dead-letter depth, net store growth); and (e) on a
journaling store, the *journal frames* it wrote (below).
Cutover is **global and atomic**: only once *every* active class has
shown :data:`REPLAY_CONVERGENCE_STREAK` consecutive executions with all
five identical does the engine freeze them all — after first draining
the batched write pipeline (journal flush included) so no buffered
write is stranded by the freeze.
Per-class cutover would be unsound — request classes share replica
state (uid factories, provenance taints, component caches), so
skipping one class's executions perturbs the traces of classes still
executing.  Until the global cutover the event engine's ingestion is
*exactly* the tick loop's; after it, each class applies its frozen
delta once per interval, scaled by that interval's live executions —
one :meth:`~repro.telemetry.metrics.Counter.apply` per instrument
(counter increments, gauge sets, one scaled histogram accumulate), each
checked :meth:`~repro.telemetry.metrics.Metric.scalable` at the freeze
(an integral amount, so that scaling it equals adding it execution by
execution) — and feeds the profiler its records through the same
:meth:`~repro.profiling.profiler.CausalPathProfiler.record` call the
tick loop makes, counts scaled.  A frozen histogram min/max is the
converged *running* extreme of the shared instrument (4.0/9.0 on
marketcetera and hedwig, 3.0/9.0 on zookeeper), not the execution's
own.  The streak is deliberately long: measured workloads
show per-class transients of 16 executions — one interval's live
traces, until every class has completed once and the extremes of the
shared ``graphstore.eviction_size_nodes`` histogram stop moving —
before the per-execution effects settle, so the threshold must
comfortably exceed them.

Replay writes the journal.  The paper names a message ``<address,
process, per-process sequence number>``, so a converged execution's
journal frames are a pure function of the per-process counters: same
skeleton bytes, same flush points, only the ``seq`` fields advance.  On
the ``log`` backend the ingestor therefore observes what each warm-up
execution *actually wrote* to each shard's
:class:`~repro.graphstore.backend.LogBackend` — the flushed blobs, in
order, flush boundaries included (segments rotate *between* flushes) —
and reduces them to a :class:`_JournalEffect`: per frame the skeleton
entry plus, for every uid in its tail, a ``(counter, offset)`` reference
relative to that :class:`~repro.lang.message.UidFactory`'s position at
the start of the execution.  An execution counts toward the streak only
if its effect equals the reference *and* rendering it at the current
positions gives back the written tails, so a class whose frames name a
uid from outside the execution (a cause from a still-open earlier
request), touch more than the root's shard, or come with net store
growth simply never converges, and the run stays live.  The freeze
resolves the backends afresh and sends back to warm-up any class whose
observed frames do not match them — one that converged before a backend
was swapped in or out and has not executed since.  After the
cutover ``_apply`` renders the effect ``live`` times through the
backend's one append path (``append_frame`` + ``flush``: accounting,
auto-flush and rotation are shared with live journaling), routing each
execution by its root uid exactly as the sharded store does, and
advances the uid counters so they stay authoritative.  Every segment
file of every shard is byte-identical to the tick engine's
(``tests/sim/test_replay_journal.py``).

Replay is only eligible when ingestion is pure counting, and
:func:`replay_refusal` is the one predicate that says so: no fault
injector, no path timeout, a memory- or log-backend store (a mixed
fleet and any journaling backend replay cannot render frames for stay
refused), and an ``exact``-mode profiler whose manager cannot downshift
it into a sketch mode mid-run (batched replayed ``profiler.record`` ops
are additive for exact buckets but would perturb space-saving
promotion/eviction order).  Sharded stores and the batched write
pipeline are eligible: ``observe_all`` drains the pipeline at the end
of every execution, so per-execution batch telemetry is a
deterministic function of the converged trace shape and the buffers
are empty at the cutover (the freeze drains them once more,
defensively, before any delta is frozen).  Shard routing is
uid-hash-dependent, but no metric is keyed per shard, and an unsettled
metric can only hold the convergence streak at zero — it can never
diverge after a freeze.  Ineligible configurations still run
under the event engine, with full-fidelity ingestion that is literally
the tick loop's code.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional

from repro.graphstore.backend import frame_parts, pack_tail
from repro.lang.message import MessageUid
from repro.sim.metrics import SimulationResult

#: Consecutive identical executions (every part of :data:`_STREAK_PARTS`)
#: required before a class cuts over to replay.  Must exceed the longest false plateau
#: observed in the scenario suite (16, one interval's live traces) with
#: generous margin.
REPLAY_CONVERGENCE_STREAK = 48

#: Registry keys excluded from parity comparison and replay capture
#: (see module docstring for why): wall-clock timers ...
VOLATILE_METRIC_SUFFIX = "_seconds"
#: ... and backend diagnostics (flush/fsync/rotation/byte counters), a
#: property of the persistence seam, not the simulated run; every
#: journaling backend reports its own, so they are excluded from both
#: the parity contract and cross-backend digest comparison.
VOLATILE_METRIC_PREFIX = "graphstore.backend_"

#: Metric base names the profiler maintains itself during replay (the
#: frozen delta must not double-count them).  The sketch gauges are
#: updated inside ``profiler.record``/``counts`` too, so they belong
#: here even though replay requires exact mode (where they stay zero).
_PROFILER_LIVE_KEYS = frozenset(
    {
        "profiler.recordings",
        "profiler.path_completions",
        "profiler.sketch_evictions",
        "profiler.estimate_error",
    }
)


def replay_refusal(sim) -> Optional[str]:
    """Why ``sim`` may not use converged replay, or ``None`` when it may.

    The one eligibility predicate (see the module docstring): consulted
    when the runner decides whether to build a :class:`ReplayIngestor`,
    when the ingestor is constructed, and again at the freeze cutover.
    """
    if sim.dca is None:
        return "ReplayIngestor requires a DCA bundle"
    if sim.faults is not None or sim.dca.fault_injector is not None:
        return "ReplayIngestor requires a fault-free configuration"
    tracker = sim.dca.tracker
    if (
        # Injector rolls and per-root timeout ages are per-message state
        # no frozen effect carries ...
        tracker.fault_injector is not None
        or tracker.path_timeout_minutes is not None
        # ... and replay keeps the durable side complete only where it has
        # nothing (memory) or renders its frames (log): a mixed fleet or
        # an unknown journal must see every mutation.
        or tracker.store.backend_kind not in ("memory", "log")
    ):
        return "tracker configuration does not support snapshot replay"
    if sim.dca.profiler.mode != "exact":
        # Frozen record ops replay as one batched profiler.record per
        # logical execution; that is additive for exact buckets but
        # changes space-saving promotion/eviction order in sketch
        # modes, so sketch-mode runs (and managers that may downshift
        # into one mid-run) keep full-fidelity ingestion.
        return "ReplayIngestor requires the exact profiler mode"
    detector = getattr(sim.manager, "staleness_detector", None)
    if getattr(detector, "downshift_mode", None) is not None:
        return "ReplayIngestor cannot run with a staleness precision downshift configured"
    return None


def metric_base_name(key: str) -> str:
    """Strip the label suffix from a rendered registry key."""
    return key.split("{", 1)[0]


def is_volatile_metric_key(key: str) -> bool:
    """Whether ``key`` is excluded from the tick/event parity contract."""
    base = metric_base_name(key)
    return base.endswith(VOLATILE_METRIC_SUFFIX) or base.startswith(VOLATILE_METRIC_PREFIX)


def _instruments(registry):
    """``(key, instrument)`` for every instrument replay captures."""
    return ((metric.key, metric) for metric in registry if not is_volatile_metric_key(metric.key))


def _replay_ops(delta: Dict[str, object], by_key) -> Optional[List[tuple]]:
    """A converged class's telemetry delta as ``(instrument, change)`` ops, or
    ``None`` when one change does not scale (see
    :meth:`~repro.telemetry.metrics.Metric.scalable`): the run stays live."""
    ops = []
    for key, change in sorted(delta.items()):
        if metric_base_name(key) in _PROFILER_LIVE_KEYS:
            continue  # profiler.record maintains these live
        metric = by_key[key]
        if not metric.scalable(change):
            return None
        ops.append((metric, change))
    return ops


def _journals(store) -> tuple:
    """``(backends, route)``: the shards' journaling backends in shard order
    (all of them or, on memory, none — a mixed fleet is refused before this
    is asked) and the root uid -> shard index routing.

    Resolved from the store at every use during warm-up and once more at
    the freeze — never cached across them: the cutover re-checks
    eligibility precisely because a backend may be swapped in mid-run.
    """
    backends = [shard.backend for shard in store.shards if shard.backend.journaling]
    return backends, store.shard_index_of


class _JournalEffect(NamedTuple):
    """The journal frames one execution of a class writes, as a template.

    A frame is a fixed skeleton plus a tail of packed uids, and a
    converged execution's uids are its own: each is a ``(counter index,
    offset)`` reference — the position of one of the runtime's uid
    counters at the start of the execution, plus ``0 < offset <=
    stride``.  That makes the frames a pure function of the counter
    positions, which :meth:`tails` renders for any execution.
    """

    #: How far one execution moves each uid counter.
    strides: tuple
    #: Reference to the root uid, which routes the execution to a shard.
    root: tuple
    #: Every reference of every frame's tail, in write order.
    refs: list
    #: Per flush, per frame: ``(skeleton entry, slice of tails())``.  Flush
    #: boundaries belong here: segments rotate *between* flushes.
    blobs: list

    def tails(self, factories, positions: List[int]) -> bytes:
        """Every frame's packed ``<process_id, seq>`` tail, concatenated, for
        the execution that starts with the uid counters at ``positions``."""
        args: List[int] = []
        for index, offset in self.refs:
            args += (factories[index].process_id, positions[index] + offset)
        return pack_tail(args)


#: What :meth:`_ClassReplayState.note` compares, in order, under the
#: names the ``repro simulate`` replay line uses.
_STREAK_PARTS = (
    "telemetry delta", "trace fingerprint", "profiler records", "ingestion residue",
    "journal frames",
)
#: ... and the name for frames that fit no :class:`_JournalEffect` at all.
_UNFIT_FRAMES = (
    "journal frames, which cite a uid from outside the execution, "
    "leave the root's shard or come with net store growth"
)


class _ClassReplayState:
    """Per-request-class convergence tracking and frozen replay ops."""

    __slots__ = (
        "reference",
        "blocker",
        "streak",
        "executions",
        "last_trace",
        "record_ops",
        "ops",
    )

    def __init__(self) -> None:
        #: The last streak-resetting execution's :data:`_STREAK_PARTS`.
        self.reference: tuple = (None,) * len(_STREAK_PARTS)
        #: The part that reset the streak last.
        self.blocker = _STREAK_PARTS[0]
        self.streak = 0
        self.executions = 0
        self.last_trace = None
        #: The ``(signature, count)`` records one execution gave the
        #: profiler, as ``observe_all`` returns them.  Observed, not
        #: assumed: replay must reproduce exactly what ingestion did.
        #: (Completed requests retire their uids, so an execution completes
        #: its own graph only.)
        self.record_ops: List[tuple] = []
        #: The frozen telemetry delta: ``(instrument, change)`` pairs.
        self.ops: List[tuple] = []

    @property
    def converged(self) -> bool:
        return self.streak >= REPLAY_CONVERGENCE_STREAK

    @property
    def journal(self):
        """What an execution writes to the journal: a
        :class:`_JournalEffect`, or ``()`` on a store that keeps none."""
        return self.reference[4]

    def note(
        self,
        delta: Dict[str, tuple],
        fingerprint: tuple,
        trace,
        record_ops: List[tuple],
        residue: tuple,
        journal,
    ) -> None:
        """Count one execution; ``journal`` is ``None`` when its frames
        fit no :class:`_JournalEffect`, which never counts as a repeat."""
        self.executions += 1
        self.last_trace = trace
        records_key = tuple(
            (sig.request_type, sig.edges, count) for sig, count in record_ops
        )
        observed = (delta, fingerprint, records_key, residue, journal)
        if journal is not None and observed == self.reference:
            self.streak += 1
        else:
            self.blocker = _UNFIT_FRAMES if journal is None else next(
                name for name, new, old in zip(_STREAK_PARTS, observed, self.reference) if new != old
            )
            self.reference = observed
            self.record_ops = list(record_ops)
            self.streak = 1


class ReplayIngestor:
    """DCA ingestion with the converged-replay fast path.

    Drop-in replacement for the simulator's live ``ingest_class``
    strategy: sampling draws and the per-class loop skeleton stay in
    :meth:`~repro.sim.engine.ClusterSimulator._dca_tick`, so the seeded
    sampler streams are untouched; only the per-execution work is
    swapped once *every* active class has converged (the cutover is
    atomic — see the module docstring).

    ``active_classes`` is the set of class names with any arrivals in
    the run's schedule; classes that never receive traffic cannot
    execute in either engine and must not block the cutover.
    """

    def __init__(self, sim, active_classes=None) -> None:
        refusal = replay_refusal(sim)
        if refusal is not None:
            raise ValueError(refusal)
        self.sim = sim
        self.registry = sim.telemetry
        if active_classes is None:
            active_classes = set(sim.generator.classes)
        self.states: Dict[str, _ClassReplayState] = {
            name: _ClassReplayState() for name in sorted(active_classes)
        }
        self.replaying = False
        self.cutover_minute: Optional[float] = None
        self.replayed_executions = 0
        self.live_executions = 0
        self._factories = sim.dca.runtime.uid_factories
        self._factory_index = {(f.address, f.process_id): i for i, f in enumerate(self._factories)}
        #: Where replay writes journal frames: ``_journals`` at the freeze.
        self._journals: tuple = ([], None)

    # -- entry point (same signature as ClusterSimulator._run_dca_tick) --------

    def ingest(self, now: float, arrivals) -> Dict[str, int]:
        sampled = self.sim._dca_tick(now, arrivals, self._ingest_class)
        if (
            not self.replaying
            and all(s.converged for s in self.states.values())
            # Re-checked at the cutover (not just construction): if the
            # tracker's store/backend configuration changed under us —
            # e.g. a backend replay cannot write frames for was swapped
            # in mid-run — freezing would silently stop feeding its log.
            and replay_refusal(self.sim) is None
        ):
            self._freeze_all(now)
        return sampled

    # -- per-class strategies ---------------------------------------------------

    def _ingest_class(self, class_name: str, live: int, remainder: int, now: float) -> None:
        state = self.states[class_name]
        if self.replaying:
            self._apply(state, live, remainder, now)
        else:
            self._warm(class_name, state, live, remainder, now)

    def _warm(
        self,
        class_name: str,
        state: _ClassReplayState,
        live: int,
        remainder: int,
        now: float,
    ) -> None:
        """Execute for real (exactly the tick loop), recording what each
        execution did."""
        sim = self.sim
        request = sim.generator.classes[class_name]
        tracker = sim.dca.tracker
        last_trace = None
        before = {key: metric.state() for key, metric in _instruments(self.registry)}
        nodes_before = tracker.store.node_count()
        journals, route = _journals(tracker.store)
        for _ in range(live):
            # On a journaling store, tap every flush: what each shard's
            # journal was handed, blob by blob.
            written: List[tuple] = []
            for backend in journals:
                backend.flush_tap = lambda backend, blob: written.append((backend, blob))
            start = [factory.position for factory in self._factories]
            try:
                last_trace = sim.dca.runtime.execute_request(request, sampled=True)
                records = tracker.observe_all(last_trace.messages)
            finally:
                for backend in journals:
                    backend.flush_tap = None
            delta = {}
            for key, metric in _instruments(self.registry):
                change = metric.change_since(before.get(key))
                if change is not None:
                    delta[key] = change
                    before[key] = metric.state()
            nodes_after = tracker.store.node_count()
            # Shard/batch-invariant ingestion residue: what this
            # execution left behind in the write machinery.  All four
            # components aggregate across shards (never keyed by shard
            # index, which is uid-hash-variant and would block
            # convergence for good); buffered/pending are 0 after every
            # observe_all-triggered flush, and the net node delta pins
            # the steady-state store growth the freeze will stop
            # producing.
            residue = (
                tracker.buffered_writes,
                tracker.pending_completion_depth,
                tracker.dead_letters.depth,
                nodes_after - nodes_before,
            )
            journal = ()
            if journals:
                # Net store growth would leave the live store unlike the
                # one the replayed journal recovers to.
                root = last_trace.messages[0].uid
                journal = None if residue[3] else self._journal_effect(
                    written, journals[route(root)], root, start
                )
            state.note(
                delta,
                last_trace.structural_fingerprint(),
                last_trace,
                records,
                residue,
                journal,
            )
            nodes_before = nodes_after
        self.live_executions += live
        if remainder > 0 and last_trace is not None:
            # Same shortcut as the tick loop (no injector by construction).
            sim.dca.profiler.record(last_trace.signature, now, count=remainder)

    def _journal_effect(self, written: List[tuple], owner, root: MessageUid, start: List[int]):
        """Reduce the blobs one execution flushed to a :class:`_JournalEffect`.

        ``None`` unless every blob went to ``owner``, the backend of the
        shard ``root`` routes to, every uid in every frame was drawn by
        this execution (``start`` holds the uid counters before it), and
        rendering the effect at ``start`` gives back the written tails.
        """
        strides = tuple(f.position - at for f, at in zip(self._factories, start))

        def ref(uid):
            index = self._factory_index.get(uid[:2])
            if index is not None and 0 < uid[2] - start[index] <= strides[index]:
                return index, uid[2] - start[index]

        refs, blobs, tails = [], [], bytearray()
        for backend, blob in written:
            if backend is not owner:
                return None
            blobs.append([])
            for entry, uids, tail in frame_parts(blob):
                blobs[-1].append((entry, slice(len(tails), len(tails) + len(tail))))
                refs += map(ref, uids)
                tails += tail
        effect = _JournalEffect(strides, ref(root), refs, blobs)
        if None in refs or effect.root is None or effect.tails(self._factories, start) != tails:
            return None
        return effect

    def _freeze_all(self, now: float) -> None:
        """Atomic cutover: turn every class's stable delta into direct ops.

        Ordering contract (pinned by
        ``tests/sim/test_replay_cutover_ordering.py``): the tracker's
        write pipeline is drained — journal flush included — *before*
        any class delta is frozen, so every warmup write reaches the
        store's durability point ahead of the moment ingestion stops
        feeding it.  In practice the buffers are already empty (every
        ``observe_all`` ends in a flush, which the residue fingerprint
        pins at ``buffered_writes == 0``), so the drain emits no
        telemetry and cannot perturb parity.

        May decline and leave the run live, to be retried once every
        class has converged again: a fractional counter amount or
        histogram sum, or a class whose frames were observed on other
        journaling backends than the store has now.
        """
        tracker = self.sim.dca.tracker
        tracker.drain_pipeline()
        if tracker.buffered_writes:
            raise RuntimeError("write pipeline still buffered after cutover drain")
        journals = _journals(tracker.store)
        by_key = dict(_instruments(self.registry))
        for state in self.states.values():
            if state.last_trace is None:
                # Converged vacuously (no arrivals yet scheduled this
                # far); an active class always executes before cutover
                # because its streak can only grow by executing.
                raise RuntimeError("cannot freeze a class that never executed")
            if bool(state.journal) != bool(journals[0]):
                # Converged on what another backend (or none) was handed
                # and idle since the swap: frozen, its frames would never
                # reach the journal.  It has to be observed again.
                state.streak, state.blocker = 0, _STREAK_PARTS[-1]
                return
            state.ops = _replay_ops(state.reference[0], by_key)
            if state.ops is None:
                return  # retried next interval; ops are rebuilt
        self._journals = journals
        self.replaying = True
        self.cutover_minute = now

    def _apply(self, state: _ClassReplayState, live: int, remainder: int, now: float) -> None:
        """Replay ``live`` executions' worth of frozen effects."""
        # One scaled op per instrument per class per interval: every
        # change was checked scalable at the freeze.  A histogram's min/max
        # are the shared instrument's converged running extremes, so
        # re-folding them is a no-op.
        for metric, change in state.ops:
            metric.apply(change, live)
        self.replayed_executions += live
        if state.journal:
            self._replay_journal(state.journal, live)
        # Path completions go through the real profiler so its window
        # buckets (the DCA managers' decision input) stay live; counts
        # batch across the replayed executions (buckets are additive).
        profiler = self.sim.dca.profiler
        for signature, count in state.record_ops:
            profiler.record(signature, now, count=count * live)
        if remainder > 0:
            # The tick loop's shortcut: remaining sampled requests of
            # the class follow the last live trace's path.
            profiler.record(state.last_trace.signature, now, count=remainder)

    def _replay_journal(self, journal: _JournalEffect, live: int) -> None:
        """Write ``live`` executions' frames and move the uid counters past them.

        Through :meth:`~repro.graphstore.backend.LogBackend.append_frame`
        and ``flush``, the calls a live execution's frames go through:
        accounting, auto-flush and rotation are the backend's, not ours.
        """
        factories = self._factories
        positions = [factory.position for factory in factories]
        backends, route = self._journals
        root_index, root_offset = journal.root
        root = factories[root_index]
        for _ in range(live):
            backend = backends[route(
                MessageUid(root.address, root.process_id, positions[root_index] + root_offset)
            )]
            tails = journal.tails(factories, positions)
            for frames in journal.blobs:
                for entry, span in frames:
                    backend.append_frame(entry, tails[span])
                backend.flush()
            positions = [at + stride for at, stride in zip(positions, journal.strides)]
        for factory, stride in zip(factories, journal.strides):
            factory.advance(stride * live)


class EventDrivenRunner:
    """Runs one simulation under ``engine="event"``.

    Built by :meth:`ClusterSimulator.run`; kept on the simulator as
    ``event_runner`` so tests, benchmarks and CLI stats can read the
    replay ingestor's counters after the run.
    """

    def __init__(self, sim) -> None:
        self.sim = sim
        self.events_processed: Dict[str, int] = {"interval": 0}
        #: Built in :meth:`run` once the arrival schedule (and with it
        #: the set of classes that ever receive traffic) is known.
        self.ingestor: Optional[ReplayIngestor] = None
        # Ineligible runs keep full-fidelity ingestion — literally the
        # tick loop's code.
        self._replay_eligible = replay_refusal(sim) is None

    def run(self) -> SimulationResult:
        sim = self.sim
        cfg = sim.config
        result = SimulationResult(manager_name=sim.manager.name, application=sim.app.name)
        boundaries = [k * cfg.interval_minutes for k in range(cfg.num_intervals)]
        arrivals = sim.generator.arrivals_series(boundaries)
        if self._replay_eligible:
            active = {
                name
                for per_interval in arrivals
                for name, arrived in per_interval.items()
                if arrived > 0
            }
            self.ingestor = ReplayIngestor(sim, active_classes=active)
        ingest = self.ingestor.ingest if self.ingestor is not None else None
        for t, arrived in zip(boundaries, arrivals):
            sim.run_interval(t, result, ingestor=ingest, arrivals=arrived)
            self.events_processed["interval"] += 1
        return result

    def replay_report(self) -> str:
        """Whether converged replay engaged and, if not, what held it (after the run)."""
        ingestor = self.ingestor
        if ingestor is not None and ingestor.replaying:
            return (
                f"engaged at minute {ingestor.cutover_minute:g} "
                f"({ingestor.live_executions} live, {ingestor.replayed_executions} replayed)"
            )
        refusal = replay_refusal(self.sim)
        if ingestor is None or refusal is not None:
            return f"not engaged — {refusal}"
        for name, state in ingestor.states.items():
            if not state.converged:
                return (
                    f"not engaged — class {name}: {state.streak}/{REPLAY_CONVERGENCE_STREAK} "
                    f"identical executions, streak last reset by its {state.blocker}"
                )
        return "not engaged — a converged counter or histogram delta is fractional"
