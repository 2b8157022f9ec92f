"""Unit tests for vector clocks."""

import pytest

from repro.errors import ReproError
from repro.tracing.clocks import VectorClock, VectorTimestamp


class TestVectorClock:
    def test_happens_before_on_message_chain(self):
        a, b = VectorClock("a"), VectorClock("b")
        ts_send = a.send()
        ts_recv = b.receive(ts_send)
        assert ts_send.happens_before(ts_recv)
        assert not ts_recv.happens_before(ts_send)

    def test_concurrent_events(self):
        a, b = VectorClock("a"), VectorClock("b")
        ts_a = a.tick()
        ts_b = b.tick()
        assert not ts_a.happens_before(ts_b)
        assert not ts_b.happens_before(ts_a)

    def test_merge_takes_componentwise_max(self):
        t1 = VectorTimestamp({"a": 3, "b": 1})
        t2 = VectorTimestamp({"a": 1, "b": 5, "c": 2})
        merged = t1.merged(t2)
        assert merged.clocks == {"a": 3, "b": 5, "c": 2}

    def test_transitivity_through_chain(self):
        a, b, c = VectorClock("a"), VectorClock("b"), VectorClock("c")
        ts1 = a.send()
        ts2 = b.receive(ts1)
        ts3 = b.send()
        ts4 = c.receive(ts3)
        assert ts1.happens_before(ts4)

    def test_requires_process_name(self):
        with pytest.raises(ReproError):
            VectorClock("")

    def test_negative_component_rejected(self):
        a = VectorClock("a")
        with pytest.raises(ReproError):
            a.receive(VectorTimestamp({"b": -1}))


class TestFig3Scenario:
    """The paper's Fig. 3: temporal causality over-approximates.

    msgA and msgB arrive at a payment component concurrently; msgC (the
    response to msgA) is 'caused' by both under happens-before, though
    only msgA actually caused it.
    """

    def test_happens_before_overapproximates(self):
        client_a, client_b, server = VectorClock("ca"), VectorClock("cb"), VectorClock("srv")
        ts_msg_a = client_a.send()
        ts_msg_b = client_b.send()
        server.receive(ts_msg_a)
        server.receive(ts_msg_b)
        ts_msg_c = server.send()  # response to msgA only
        # Temporal causality cannot exclude msgB:
        assert ts_msg_a.happens_before(ts_msg_c)
        assert ts_msg_b.happens_before(ts_msg_c)  # the false positive
