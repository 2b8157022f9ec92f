"""Declarative fault plans.

A :class:`FaultPlan` is pure data: rates per fault channel, an active
window, and a schedule of node crashes.  It deliberately contains no
randomness — the :class:`~repro.faults.injector.FaultInjector` derives
per-channel RNGs from ``seed`` so that two injectors built from equal
plans make identical decisions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Tuple

from repro.errors import FaultPlanError

#: Fault channels whose rates are plain probabilities in [0, 1].
_RATE_FIELDS = (
    "message_drop_rate",
    "message_duplicate_rate",
    "message_delay_rate",
    "edge_loss_rate",
    "store_write_failure_rate",
    "profiler_flush_loss_rate",
)


@dataclass(frozen=True)
class NodeCrash:
    """A scheduled crash: ``count`` ready nodes of ``component`` at ``minute``.

    ``component`` may be ``"*"`` to crash ``count`` nodes of *every*
    component group — the app-agnostic form the built-in scenarios use.
    """

    minute: float
    component: str
    count: int = 1

    def __post_init__(self) -> None:
        if self.minute < 0:
            raise FaultPlanError(f"crash minute must be >= 0, got {self.minute}")
        if not self.component:
            raise FaultPlanError("crash component must be non-empty")
        if self.count < 1:
            raise FaultPlanError(f"crash count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class FaultPlan:
    """What goes wrong, how often, and when.

    Rates are per-event probabilities: each sampled message rolls the
    drop/duplicate/delay/edge-loss channels, each graph-store write rolls
    the write-failure channel, each completed path rolls the
    profiler-flush channel.  Faults only fire inside
    ``[start_minute, end_minute)`` — a finite window is how scenarios
    model an outage that *ends*, which is what the recovery paths
    (staleness re-engagement, retry success) need to be exercised.
    """

    seed: int = 0
    message_drop_rate: float = 0.0
    message_duplicate_rate: float = 0.0
    message_delay_rate: float = 0.0
    message_delay_minutes: float = 1.0
    edge_loss_rate: float = 0.0
    store_write_failure_rate: float = 0.0
    profiler_flush_loss_rate: float = 0.0
    node_crashes: Tuple[NodeCrash, ...] = field(default_factory=tuple)
    start_minute: float = 0.0
    end_minute: float = math.inf

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultPlanError(f"{name} must be in [0, 1], got {rate}")
        if self.message_delay_minutes <= 0:
            raise FaultPlanError(
                f"message_delay_minutes must be positive, got {self.message_delay_minutes}"
            )
        if self.start_minute < 0:
            raise FaultPlanError(f"start_minute must be >= 0, got {self.start_minute}")
        if self.end_minute <= self.start_minute:
            raise FaultPlanError(
                f"end_minute {self.end_minute} must be > start_minute {self.start_minute}"
            )
        # Freeze the crash schedule in time order so injector iteration
        # is deterministic regardless of how the plan was written.
        object.__setattr__(
            self,
            "node_crashes",
            tuple(sorted(self.node_crashes, key=lambda c: (c.minute, c.component))),
        )

    @property
    def any_message_faults(self) -> bool:
        """Whether the tracker-side message channels can ever fire."""
        return (
            self.message_drop_rate > 0
            or self.message_duplicate_rate > 0
            or self.message_delay_rate > 0
            or self.edge_loss_rate > 0
        )

    def active_at(self, minute: float) -> bool:
        """Whether the fault window covers ``minute``.

        **Pinned contract: the window is half-open,** ``[start_minute,
        end_minute)``.  A roll at exactly ``end_minute`` is *outside* the
        window — the outage has ended and recovery machinery (retry
        success, staleness re-engagement) must see a healthy system at
        that boundary.  Both engines evaluate this at the same clock
        values — ``advance_to`` is only ever called at interval
        boundaries, by the one superstep they share — so a window ending
        exactly on a boundary can neither double-fire nor silently skip
        faults at the edge.  ``tests/faults/test_window_boundaries.py``
        pins this at exact boundary minutes under both engines.
        Scheduled node crashes deliberately ignore the window (see
        :meth:`FaultInjector.node_crashes_due`).
        """
        return self.start_minute <= minute < self.end_minute
