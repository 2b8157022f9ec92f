"""Unit tests for message uids and the message model."""

import pickle
import random
import zlib

import pytest

from repro.errors import IRError
from repro.graphstore.sharded import shard_of
from repro.lang.ir import CLIENT, EXTERNAL
from repro.lang.message import Message, MessageUid, UidFactory


class TestUidFactory:
    def test_sequence_is_monotonic(self):
        f = UidFactory("10.0.0.1", 3)
        uids = [f.next_uid() for _ in range(5)]
        assert [u.seq for u in uids] == [1, 2, 3, 4, 5]
        assert all(u.address == "10.0.0.1" and u.process_id == 3 for u in uids)

    def test_independent_factories(self):
        a, b = UidFactory("h1", 1), UidFactory("h2", 2)
        assert a.next_uid() != b.next_uid()

    def test_requires_address(self):
        with pytest.raises(IRError):
            UidFactory("", 1)

    def test_factory_uids_are_constructor_uids(self):
        # The factory hashes its "address/pid/" prefix once and continues
        # the crc per sequence number; the result must be the uid the
        # three-argument constructor builds, partition hash included.
        factory = UidFactory("10.0.0.7", 12)
        for _ in range(1200):
            uid = factory.next_uid()
            assert tuple(uid) == tuple(MessageUid(uid.address, uid.process_id, uid.seq))

    def test_advance_skips_what_next_uid_would_have_drawn(self):
        # position is the whole uid state: skipping n draws and drawing
        # them leave the factory handing out the same next uid.
        drawn, skipped = UidFactory("10.0.0.7", 12), UidFactory("10.0.0.7", 12)
        assert drawn.position == 0
        for _ in range(37):
            drawn.next_uid()
        skipped.advance(37)
        assert skipped.position == drawn.position == 37
        assert tuple(skipped.next_uid()) == tuple(drawn.next_uid())


class TestMessageUid:
    def test_equality_and_hash(self):
        u1 = MessageUid("h", 1, 5)
        u2 = MessageUid("h", 1, 5)
        assert u1 == u2
        assert hash(u1) == hash(u2)

    def test_ordering_is_total(self):
        uids = [MessageUid("b", 1, 1), MessageUid("a", 2, 9), MessageUid("a", 1, 3)]
        assert sorted(uids)[0] == MessageUid("a", 1, 3)

    def test_str_format(self):
        assert str(MessageUid("h", 2, 7)) == "h/2#7"

    def test_repr_format(self):
        assert repr(MessageUid("h", 2, 7)) == "MessageUid(address='h', process_id=2, seq=7)"

    def test_immutable(self):
        uid = MessageUid("h", 2, 7)
        for name in ("address", "process_id", "seq", "anything_else"):
            with pytest.raises(AttributeError):
                setattr(uid, name, 1)


class TestMessageUidContract:
    """What the rest of the system relies on, over 1 000 random triples."""

    @pytest.fixture(scope="class")
    def triples(self):
        rng = random.Random(20160627)
        hosts = [f"10.{rng.randrange(256)}.0.{rng.randrange(256)}" for _ in range(40)]
        hosts += ["client.external", "h", "hé"]
        triples = [
            (rng.choice(hosts), rng.randrange(0, 64), rng.randrange(1, 10**rng.randrange(1, 12)))
            for _ in range(1000)
        ]
        # Repeats on purpose: equal triples must behave as one uid.
        return triples + triples[:50]

    def test_partition_is_the_crc_of_the_triple(self, triples):
        for n in (1, 4, 7):
            for a, p, s in triples:
                expected = zlib.crc32(f"{a}/{p}/{s}".encode("utf-8")) % n
                assert shard_of(MessageUid(a, p, s), n) == expected

    def test_sorts_as_the_triples_do(self, triples):
        uids = [MessageUid(*t) for t in triples]
        assert [(u.address, u.process_id, u.seq) for u in sorted(uids)] == sorted(triples)

    def test_equality_and_hash_follow_the_triple(self, triples):
        by_triple = {}
        for t in triples:
            by_triple.setdefault(t, []).append(MessageUid(*t))
        for t, same in by_triple.items():
            assert all(u == same[0] and hash(u) == hash(same[0]) for u in same)
            assert not any(u != same[0] for u in same)
        distinct = [same[0] for same in by_triple.values()]
        assert len(set(distinct)) == len(distinct) == len(by_triple)
        assert all(a != b for a, b in zip(distinct, distinct[1:]))

    def test_pickle_round_trip(self, triples):
        for t in triples[:200]:
            uid = MessageUid(*t)
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                clone = pickle.loads(pickle.dumps(uid, protocol))
                assert type(clone) is MessageUid
                assert clone == uid and hash(clone) == hash(uid)
                assert shard_of(clone, 7) == shard_of(uid, 7)


class TestMessage:
    def test_with_causes(self):
        uid = MessageUid("h", 1, 1)
        cause = MessageUid("h", 1, 2)
        m = Message(uid, "go", EXTERNAL, "A", {"x": 1})
        m2 = m.with_causes(frozenset({cause}))
        assert m2.cause_uids == frozenset({cause})
        assert m2.uid == m.uid
        assert m.cause_uids == frozenset()

    def test_defaults(self):
        m = Message(MessageUid("h", 1, 1), "go", EXTERNAL, "A")
        assert m.sampled is True
        assert m.root_uid is None
        assert dict(m.fields) == {}

    def test_str(self):
        m = Message(MessageUid("h", 1, 1), "go", "A", CLIENT)
        assert "go" in str(m)
        assert "A" in str(m)
