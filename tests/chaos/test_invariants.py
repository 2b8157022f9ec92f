"""Each temporal-invariant checker against hand-built event streams.

The checkers are pure functions of the :class:`~repro.sim.tap.TapEvent`
stream, so every property — and every *non*-violation a naive checker
might flag — can be pinned with a few synthetic events, no simulation
required.
"""

from repro.chaos.invariants import (
    INVARIANT_NAMES,
    REENGAGE_SLACK,
    check_all,
    check_dead_letter_exclusion,
    check_fallback_reengagement,
    check_no_resurrection,
    check_replica_accounting,
)
from repro.sim.tap import SimTap, TapEvent


def _ev(minute, kind, **data):
    return TapEvent(minute, kind, data)


class TestDeadLetterExclusion:
    def test_clean_stream_passes(self):
        events = [
            _ev(1.0, "dead_letter", uid="u1", root="r1"),
            _ev(2.0, "path_completed", root="r2", members=("r2", "u2")),
        ]
        assert check_dead_letter_exclusion(events) == []

    def test_dead_uid_in_completed_path_is_violation(self):
        events = [
            _ev(1.0, "dead_letter", uid="u1", root="r1"),
            _ev(3.0, "path_completed", root="r1", members=("r1", "u1", "u3")),
        ]
        violations = check_dead_letter_exclusion(events)
        assert len(violations) == 1
        assert violations[0].invariant == "dead-letter-exclusion"
        assert violations[0].minute == 3.0
        assert "u1" in violations[0].detail

    def test_order_matters(self):
        """A uid dead-lettered *after* the completion is not a leak."""
        events = [
            _ev(1.0, "path_completed", root="r1", members=("r1", "u1")),
            _ev(2.0, "dead_letter", uid="u1", root="r1"),
        ]
        assert check_dead_letter_exclusion(events) == []

    def test_purge_does_not_lift_exclusion(self):
        events = [
            _ev(1.0, "dead_letter", uid="u1", root="r1"),
            _ev(2.0, "dead_letter_purged", uid="u1", root="r1"),
            _ev(3.0, "path_completed", root="r1", members=("u1",)),
        ]
        assert len(check_dead_letter_exclusion(events)) == 1


class TestNoResurrection:
    def test_clean_stream_passes(self):
        events = [
            _ev(1.0, "path_abandoned", root="r1"),
            _ev(2.0, "path_completed", root="r2", members=("r2",)),
            _ev(3.0, "late_message_discarded", root="r1"),
        ]
        assert check_no_resurrection(events) == []

    def test_completion_after_abandonment_is_violation(self):
        events = [
            _ev(1.0, "path_abandoned", root="r1"),
            _ev(5.0, "path_completed", root="r1", members=("r1",)),
        ]
        violations = check_no_resurrection(events)
        assert [v.invariant for v in violations] == ["no-resurrection"]
        assert "completed afterwards" in violations[0].detail

    def test_double_abandonment_is_violation(self):
        events = [
            _ev(1.0, "path_abandoned", root="r1"),
            _ev(2.0, "path_abandoned", root="r1"),
        ]
        violations = check_no_resurrection(events)
        assert len(violations) == 1
        assert "abandoned twice" in violations[0].detail

    def test_defensive_resurrection_event_is_violation(self):
        events = [
            _ev(1.0, "path_abandoned", root="r1"),
            _ev(2.0, "root_resurrected", root="r1"),
        ]
        violations = check_no_resurrection(events)
        assert len(violations) == 1
        assert "re-entered the store" in violations[0].detail


class TestFallbackReengagement:
    def _staleness(self, minute, healthy, engaged):
        return _ev(minute, "staleness", healthy=healthy, engaged=engaged)

    def test_no_staleness_events_passes(self):
        assert check_fallback_reengagement([_ev(0.0, "replica_init",
                                                component="a", ready=2)], 2) == []

    def test_release_within_budget_passes(self):
        budget = 2 + REENGAGE_SLACK
        events = [self._staleness(float(m), False, True) for m in range(3)]
        events += [
            self._staleness(3.0 + i, True, True) for i in range(budget)
        ]
        events.append(self._staleness(3.0 + budget, True, False))
        assert check_fallback_reengagement(events, fresh_after_intervals=2) == []

    def test_stuck_fallback_is_one_violation_per_stretch(self):
        budget = 2 + REENGAGE_SLACK
        events = [
            self._staleness(float(i), True, True) for i in range(budget + 3)
        ]
        violations = check_fallback_reengagement(events, fresh_after_intervals=2)
        assert len(violations) == 1
        assert violations[0].invariant == "fallback-reengagement"
        assert violations[0].minute == float(budget)

    def test_unhealthy_observation_resets_the_streak(self):
        budget = 2 + REENGAGE_SLACK
        events = [self._staleness(float(i), True, True) for i in range(budget)]
        events.append(self._staleness(float(budget), False, True))
        events += [
            self._staleness(budget + 1.0 + i, True, True) for i in range(budget)
        ]
        assert check_fallback_reengagement(events, fresh_after_intervals=2) == []

    def test_two_stuck_stretches_are_two_violations(self):
        budget = 2 + REENGAGE_SLACK
        stretch = [self._staleness(0.0, True, True)] * (budget + 1)
        events = (
            stretch
            + [self._staleness(10.0, False, True)]
            + stretch
        )
        violations = check_fallback_reengagement(events, fresh_after_intervals=2)
        assert len(violations) == 2


class TestReplicaAccounting:
    def test_lifecycle_ledger_matches_observations(self):
        events = [
            _ev(0.0, "replica_init", component="db", ready=3),
            _ev(1.0, "replica_observed", component="db", ready=3, pending=0),
            _ev(2.0, "provision_matured", component="db", count=2, ready=5),
            _ev(3.0, "replica_observed", component="db", ready=5, pending=0),
            _ev(4.0, "nodes_crashed", component="db", count=1, ready=4),
            _ev(5.0, "replica_observed", component="db", ready=4, pending=0),
            _ev(6.0, "drain_started", component="db", count=1, ready=3),
            _ev(7.0, "replica_observed", component="db", ready=3, pending=0),
        ]
        assert check_replica_accounting(events) == []

    def test_silent_count_change_is_violation(self):
        events = [
            _ev(0.0, "replica_init", component="db", ready=3),
            _ev(1.0, "replica_observed", component="db", ready=4, pending=1),
        ]
        violations = check_replica_accounting(events)
        assert len(violations) == 1
        assert violations[0].invariant == "replica-accounting"
        assert "without a provision/crash/drain" in violations[0].detail

    def test_observation_before_init_is_violation(self):
        events = [_ev(1.0, "replica_observed", component="db", ready=2, pending=0)]
        violations = check_replica_accounting(events)
        assert len(violations) == 1
        assert "before replica_init" in violations[0].detail

    def test_ledger_resyncs_after_a_violation(self):
        """One glitch must not cascade into a violation per observation."""
        events = [
            _ev(0.0, "replica_init", component="db", ready=3),
            _ev(1.0, "replica_observed", component="db", ready=4, pending=0),
            _ev(2.0, "replica_observed", component="db", ready=4, pending=0),
        ]
        assert len(check_replica_accounting(events)) == 1

    def test_components_are_independent(self):
        events = [
            _ev(0.0, "replica_init", component="a", ready=2),
            _ev(0.0, "replica_init", component="b", ready=5),
            _ev(1.0, "replica_observed", component="a", ready=2, pending=0),
            _ev(1.0, "replica_observed", component="b", ready=5, pending=0),
        ]
        assert check_replica_accounting(events) == []


class TestCheckAll:
    def test_runs_every_checker_over_one_stream(self):
        tap = SimTap()
        tap.now = 1.0
        tap.emit("dead_letter", uid="u1", root="r1")
        tap.emit("path_abandoned", root="r1")
        tap.now = 2.0
        tap.emit("path_completed", root="r1", members=("u1",))
        tap.emit("replica_observed", component="db", ready=2, pending=0)
        violations = check_all(tap)
        names = sorted(v.invariant for v in violations)
        assert names == [
            "dead-letter-exclusion",
            "no-resurrection",
            "replica-accounting",
        ]
        for violation in violations:
            assert violation.invariant in INVARIANT_NAMES
            as_dict = violation.to_dict()
            assert set(as_dict) == {"invariant", "minute", "detail"}

    def test_clean_tap_passes(self):
        tap = SimTap()
        tap.emit("replica_init", component="db", ready=2)
        tap.now = 1.0
        tap.emit("replica_observed", component="db", ready=2, pending=0)
        assert check_all(tap) == []
