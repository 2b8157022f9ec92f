"""Temporal invariants over the simulation's semantic event stream.

Scalar counters can say *how many* dead letters a run produced; they
cannot say whether a dead-lettered uid later showed up inside a
completed path.  The checkers here consume the ordered
:class:`~repro.sim.tap.TapEvent` stream a chaos run records and evaluate
LTL-style safety properties:

``dead-letter-exclusion``
    A dead-lettered uid never appears among a completed path's members
    (G: dead_letter(u) -> not F: u in path_completed.members).  Purging
    a parked dead letter (its root was abandoned) does not lift the
    exclusion — the write was still lost.

``no-resurrection``
    An abandoned root is never completed afterwards, never abandoned a
    second time, and the tracker's defensive ``root_resurrected``
    emission never fires.

``fallback-reengagement``
    Once the staleness detector reports healthy profile flow after an
    engaged stretch, the fallback must release within
    ``fresh_after_intervals`` consecutive healthy observations (plus
    ``REENGAGE_SLACK`` for interval skew) — the elasticity-management
    contract of the Elastic Remote Methods line: degraded sizing is a
    *mode*, not a ratchet.

``replica-accounting``
    A group's ready-replica count observed by the engine only ever
    changes through an explicit lifecycle event (provision maturation,
    crash, drain start) — never silently while provisioning is in
    flight.  The checker replays the lifecycle events into a shadow
    ledger and compares it at every ``replica_observed``.

Checkers are pure functions of the event stream: they never touch the
simulation, so they can run in-worker right after a cell finishes and
ship only their violations back to the coordinator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

#: Extra healthy intervals tolerated beyond the policy's
#: ``fresh_after_intervals`` before a stuck fallback is a violation.
REENGAGE_SLACK = 2

INVARIANT_NAMES = (
    "dead-letter-exclusion",
    "no-resurrection",
    "fallback-reengagement",
    "replica-accounting",
)


@dataclass(frozen=True)
class Violation:
    """One invariant breach, anchored to the stream position."""

    invariant: str
    minute: float
    detail: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "invariant": self.invariant,
            "minute": self.minute,
            "detail": self.detail,
        }


def check_dead_letter_exclusion(events: Iterable) -> List[Violation]:
    """A dead-lettered uid never appears in a completed path."""
    violations: List[Violation] = []
    dead: Set[str] = set()
    for event in events:
        if event.kind == "dead_letter":
            dead.add(event.data["uid"])
        elif event.kind == "path_completed" and dead:
            members = event.data.get("members", ())
            leaked = dead.intersection(members)
            for uid in sorted(leaked):
                violations.append(
                    Violation(
                        "dead-letter-exclusion",
                        event.minute,
                        f"dead-lettered uid {uid} is a member of completed "
                        f"path {event.data['root']}",
                    )
                )
    return violations


def check_no_resurrection(events: Iterable) -> List[Violation]:
    """Abandoned roots never complete, resurrect, or re-abandon."""
    violations: List[Violation] = []
    abandoned: Set[str] = set()
    for event in events:
        if event.kind == "path_abandoned":
            root = event.data["root"]
            if root in abandoned:
                violations.append(
                    Violation(
                        "no-resurrection",
                        event.minute,
                        f"root {root} abandoned twice",
                    )
                )
            abandoned.add(root)
        elif event.kind == "root_resurrected":
            violations.append(
                Violation(
                    "no-resurrection",
                    event.minute,
                    f"abandoned root {event.data['root']} re-entered the store",
                )
            )
        elif event.kind == "path_completed" and abandoned:
            root = event.data["root"]
            if root in abandoned:
                violations.append(
                    Violation(
                        "no-resurrection",
                        event.minute,
                        f"abandoned root {root} completed afterwards",
                    )
                )
    return violations


def check_fallback_reengagement(events: Iterable, fresh_after_intervals: int) -> List[Violation]:
    """The staleness fallback releases promptly once the profile recovers.

    The detector emits one ``staleness`` event per interval carrying the
    observation's health and the post-update engagement state.  While
    engaged, a streak of healthy observations longer than
    ``fresh_after_intervals + REENGAGE_SLACK`` with the fallback still
    held is a violation.  Runs without a detector (baseline managers)
    emit no ``staleness`` events and trivially pass.
    """
    violations: List[Violation] = []
    budget = fresh_after_intervals + REENGAGE_SLACK
    healthy_streak = 0
    reported = False
    for event in events:
        if event.kind != "staleness":
            continue
        healthy = event.data["healthy"]
        engaged = event.data["engaged"]
        if healthy and engaged:
            healthy_streak += 1
            if healthy_streak > budget and not reported:
                violations.append(
                    Violation(
                        "fallback-reengagement",
                        event.minute,
                        f"fallback still engaged after {healthy_streak} "
                        f"consecutive healthy intervals (budget {budget})",
                    )
                )
                reported = True
        else:
            healthy_streak = 0
            reported = False
    return violations


def check_replica_accounting(events: Iterable) -> List[Violation]:
    """Ready-replica counts only change through explicit lifecycle events."""
    violations: List[Violation] = []
    # component -> ready count according to the lifecycle ledger.
    ledger: Dict[str, int] = {}
    for event in events:
        kind = event.kind
        data = event.data
        if kind == "replica_init":
            ledger[data["component"]] = data["ready"]
        elif kind in ("provision_matured", "nodes_crashed", "drain_started"):
            # These events carry the authoritative post-transition count.
            ledger[data["component"]] = data["ready"]
        elif kind == "replica_observed":
            component = data["component"]
            expected = ledger.get(component)
            if expected is None:
                violations.append(
                    Violation(
                        "replica-accounting",
                        event.minute,
                        f"component {component} observed before replica_init",
                    )
                )
                ledger[component] = data["ready"]
            elif data["ready"] != expected:
                violations.append(
                    Violation(
                        "replica-accounting",
                        event.minute,
                        f"component {component} ready={data['ready']} but the "
                        f"lifecycle ledger says {expected} — the count moved "
                        "without a provision/crash/drain event",
                    )
                )
                ledger[component] = data["ready"]
    return violations


def check_all(events, fresh_after_intervals: int = 2) -> List[Violation]:
    """Run every invariant checker over one recorded event stream.

    ``events`` may be a :class:`~repro.sim.tap.SimTap` or any iterable of
    :class:`~repro.sim.tap.TapEvent`; the stream is materialised once and
    shared (checkers are independent single passes).
    """
    stream = list(events)
    violations: List[Violation] = []
    violations.extend(check_dead_letter_exclusion(stream))
    violations.extend(check_no_resurrection(stream))
    violations.extend(
        check_fallback_reengagement(stream, fresh_after_intervals=fresh_after_intervals)
    )
    violations.extend(check_replica_accounting(stream))
    return violations
