"""The runtime fault injector the hook points consult.

One injector is shared by every layer of a simulation (tracker, graph
store, engine).  Each fault channel draws from its own deterministically
seeded RNG, so adding a new channel (or disabling one) never perturbs
the decision stream of the others — fault matrices stay comparable
across configurations.

Every fired fault is counted through the telemetry registry under
``faults.*``, so a scenario's blast radius is visible in the same
snapshot as the recovery counters (``tracker.dead_letters``,
``tracker.paths_abandoned``, ``elasticity.fallback_engaged`` …).
"""

from __future__ import annotations

import random
from typing import Dict, Optional

from repro.faults.plan import FaultPlan
from repro.telemetry import MetricsRegistry, get_registry

#: Per-channel RNG seed offsets (stable: reordering code must not change
#: any channel's stream).
_CHANNEL_SEEDS = {
    "drop": 11,
    "duplicate": 23,
    "delay": 37,
    "edge_loss": 53,
    "store_write": 71,
    "profiler_flush": 89,
}


class FaultInjector:
    """Seeded, clocked decision source for every fault channel.

    The simulation advances the injector's clock once per interval
    (:meth:`advance_to`); decisions made outside the plan's active
    window never fire.  All ``should_*`` methods are cheap enough for
    per-message hot paths: one float compare when the channel is
    disabled, one RNG draw when enabled.
    """

    def __init__(self, plan: FaultPlan, registry: Optional[MetricsRegistry] = None) -> None:
        self.plan = plan
        self.telemetry = registry if registry is not None else get_registry()
        base = plan.seed * 1_000_003
        self._rngs: Dict[str, random.Random] = {
            name: random.Random(base + offset) for name, offset in _CHANNEL_SEEDS.items()
        }
        self._now = 0.0
        self._active = plan.active_at(0.0)
        self._crash_cursor = 0
        self._m_dropped = self.telemetry.counter("faults.messages_dropped")
        self._m_duplicated = self.telemetry.counter("faults.messages_duplicated")
        self._m_delayed = self.telemetry.counter("faults.messages_delayed")
        self._m_edges_lost = self.telemetry.counter("faults.edges_lost")
        self._m_write_failures = self.telemetry.counter("faults.store_write_failures")
        self._m_flush_lost = self.telemetry.counter("faults.profiler_flush_lost")
        self._m_node_crashes = self.telemetry.counter("faults.node_crashes")

    # -- clock -------------------------------------------------------------------

    @property
    def now_minutes(self) -> float:
        return self._now

    def advance_to(self, now_minutes: float) -> None:
        """Move the injector clock; the active window is evaluated here."""
        self._now = float(now_minutes)
        self._active = self.plan.active_at(self._now)

    # -- message channels (tracker hook) ----------------------------------------

    def should_drop_message(self) -> bool:
        rate = self.plan.message_drop_rate
        if not self._active or rate <= 0.0:
            return False
        if self._rngs["drop"].random() < rate:
            self._m_dropped.inc()
            return True
        return False

    def should_duplicate_message(self) -> bool:
        rate = self.plan.message_duplicate_rate
        if not self._active or rate <= 0.0:
            return False
        if self._rngs["duplicate"].random() < rate:
            self._m_duplicated.inc()
            return True
        return False

    def message_delay(self) -> Optional[float]:
        """Minutes to hold the message back, or ``None`` to deliver now."""
        rate = self.plan.message_delay_rate
        if not self._active or rate <= 0.0:
            return None
        if self._rngs["delay"].random() < rate:
            self._m_delayed.inc()
            return self.plan.message_delay_minutes
        return None

    def should_lose_edges(self) -> bool:
        """Whether to strip the message's cause uids (partial trace)."""
        rate = self.plan.edge_loss_rate
        if not self._active or rate <= 0.0:
            return False
        if self._rngs["edge_loss"].random() < rate:
            self._m_edges_lost.inc()
            return True
        return False

    # -- store / profiler channels ----------------------------------------------

    def should_fail_store_write(self) -> bool:
        rate = self.plan.store_write_failure_rate
        if not self._active or rate <= 0.0:
            return False
        if self._rngs["store_write"].random() < rate:
            self._m_write_failures.inc()
            return True
        return False

    def should_lose_profiler_flush(self) -> bool:
        rate = self.plan.profiler_flush_loss_rate
        if not self._active or rate <= 0.0:
            return False
        if self._rngs["profiler_flush"].random() < rate:
            self._m_flush_lost.inc()
            return True
        return False

    # -- scheduled node crashes (engine hook) ------------------------------------

    def node_crashes_due(self, now_minutes: float) -> Dict[str, int]:
        """Component → nodes to crash, for crashes scheduled at or before now.

        The schedule is consumed monotonically; each crash fires once.
        Scheduled crashes ignore the active window — an explicit schedule
        entry *is* its own window.
        """
        due: Dict[str, int] = {}
        crashes = self.plan.node_crashes
        while self._crash_cursor < len(crashes):
            crash = crashes[self._crash_cursor]
            if crash.minute > now_minutes:
                break
            due[crash.component] = due.get(crash.component, 0) + crash.count
            self._crash_cursor += 1
        if due:
            self._m_node_crashes.inc(sum(due.values()))
        return due
