"""Exhaustive crash points for the log backend's torn-write contract.

A short 4-shard journal holding all five opcodes, with one shard forced
across a rotation, is damaged at every frame boundary and at every byte
class inside a frame — segment header (magic, version, index), frame
``len``, ``crc``, opcode, skeleton (the string block), uid tail — once
by truncation and once by a one-byte flip.  Each damaged journal is
recovered without and with ``repair_torn_tail``.  Either ``recover()``
raises :class:`~repro.errors.StoreBackendError`, or it succeeds and the
store equals a fresh one fed the frames that survive (same node count,
uids, signatures and members).  The frames that survive are those
ending at or before the damage in the damaged segment, plus every frame
of the other segments; ``_reference_log_reader`` (which shares no code
with the backend) locates the frames and decodes them for the fresh
store.  Success is allowed only where the contract allows it:

* without repair, only for a truncation at a frame boundary — a clean
  cut.  A cut at a boundary of a *non-final* segment is indistinguishable
  from a segment that rotated early, so it loses the segment's later
  frames silently; the oracle pins that, frames from later segments
  included;
* with repair, also for damage in the final segment, whose partial or
  corrupt tail frame (and everything after it) is truncated away — and
  the repaired files must then read clean.
"""

import os
from functools import lru_cache

import pytest

from repro.errors import StoreBackendError
from repro.graphstore.backend import shard_backends, shard_dir
from repro.graphstore.sharded import ShardedGraphStore
from repro.lang.ir import CLIENT, EXTERNAL
from repro.lang.message import Message, MessageUid
from repro.telemetry import MetricsRegistry

from tests.graphstore import _reference_log_reader as reference

NUM_SHARDS = 4
HEADER = 12
#: Small enough that the busiest shard rotates once.
SEGMENT_BYTES = 600


def _requests():
    """Eight requests: chains, a two-cause join, an unsampled hop."""
    requests = []
    for index in range(8):
        base = 1 + 10 * index
        root = Message(MessageUid("client", 0, base), "req", EXTERNAL, "A")
        hop = Message(
            MessageUid("10.0.0.1", 1, base), "call", "A", "B",
            cause_uids=frozenset({root.uid}), root_uid=root.uid, sampled=index != 3,
        )
        side = Message(
            MessageUid("10.0.0.1", 1, base + 1), "aux", "A", "C",
            cause_uids=frozenset({root.uid}), root_uid=root.uid,
        )
        join = Message(
            MessageUid("10.0.0.2", 2, base), "reply", "B", CLIENT,
            cause_uids=frozenset({hop.uid, side.uid}), root_uid=root.uid,
        )
        requests.append([root, hop, side, join])
    return requests


REQUESTS = _requests()
ROOTS = [request[0].uid for request in REQUESTS]


def _write_journal(directory):
    registry = MetricsRegistry()
    store = ShardedGraphStore(
        num_shards=NUM_SHARDS, registry=registry,
        backends=shard_backends(
            "log", NUM_SHARDS, directory, registry=registry, fsync="never",
            segment_bytes=SEGMENT_BYTES,
        ),
    )
    for index, request in enumerate(REQUESTS):
        store.add_messages(request if index != 5 else request[:-1])
        store.flush_journal()
        if index % 3 == 0:
            store.evict_graph(request[0].uid)
    store.abandon_roots([REQUESTS[5][0].uid])
    store.add_edge(REQUESTS[1][1].uid, MessageUid("ghost", 9, 1))
    store.repair_dangling_edges()
    store.close()


def _observables(store):
    return (
        store.node_count(),
        sorted(store.all_uids()),
        [store.completed_signature(root) for root in ROOTS],
        [store.graph_members(root) for root in ROOTS],
    )


def _uid(triple):
    return None if triple is None else MessageUid(*triple)


def _apply(shard, frame):
    """Feed one reference-decoded frame to a fresh store's shard."""
    if frame.op == "message":
        uid, msg_type, src, dest, root, causes, sampled = frame.args
        shard.add_message(Message(
            _uid(uid), msg_type, src, dest,
            cause_uids=frozenset(map(_uid, causes)), root_uid=_uid(root), sampled=sampled,
        ))
    elif frame.op == "edge":
        shard.add_edge(*map(_uid, frame.args))
    elif frame.op == "evict":
        shard.evict_graph(_uid(frame.args[0]))
    elif frame.op == "abandon":
        shard.abandon_roots([_uid(frame.args[0])])
    else:
        shard.repair_dangling_edges()


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("journal"))
    _write_journal(directory)
    frames = [reference.read_log(shard_dir(directory, i)) for i in range(NUM_SHARDS)]
    files = {}
    for shard in range(NUM_SHARDS):
        for name in os.listdir(shard_dir(directory, shard)):
            with open(os.path.join(shard_dir(directory, shard), name), "rb") as fh:
                files[shard, int(name[8:16])] = fh.read()
    return directory, frames, files


def _damage_points(frames, size):
    """``(kind, offset, class)`` for one segment: truncations and flips."""
    points = {("cut", 0, "header"), ("cut", 5, "header"), ("cut", HEADER - 1, "header")}
    points |= {("flip", 0, "magic"), ("flip", 4, "version"), ("flip", 8, "index")}
    for frame in frames:
        body = frame.start + 8
        classes = {
            frame.start: "len", frame.start + 3: "len", frame.start + 4: "crc",
            frame.start + 7: "crc", body: "opcode", frame.end - 1: "tail",
        }
        if frame.tail > body + 1:
            classes[body + 1] = classes[(body + frame.tail) // 2] = "skeleton"
            classes[frame.tail - 1] = "skeleton"
        if frame.tail < frame.end:
            classes[frame.tail] = "tail"
        for offset, name in classes.items():
            points.add(("cut", offset, "boundary" if offset == frame.start else name))
            points.add(("flip", offset, name))
    points.add(("cut", HEADER, "boundary"))
    return sorted(point for point in points if point[1] < size)


def _all_points(frames, files):
    points = []
    for (shard, segment), data in sorted(files.items()):
        in_segment = [frame for frame in frames[shard] if frame.segment == segment]
        for kind, offset, name in _damage_points(in_segment, len(data)):
            points.append((shard, segment, kind, offset, name))
    return points


def test_journal_covers_every_opcode_and_a_rotation(journal):
    _directory, frames, files = journal
    assert {frame.op for shard in frames for frame in shard} == set(reference.OPS.values())
    assert any(segment == 1 for _shard, segment in files)
    # Every byte class is hit somewhere.
    classes = {name for *_rest, name in _all_points(frames, files)}
    assert classes == {
        "header", "magic", "version", "index", "boundary", "len", "crc", "opcode",
        "skeleton", "tail",
    }


def _recover(directory, repair):
    registry = MetricsRegistry()
    backends = shard_backends(
        "log", NUM_SHARDS, directory, create=False, registry=registry, fsync="never",
        repair_torn_tail=repair,
    )
    store = ShardedGraphStore(num_shards=NUM_SHARDS, registry=registry, backends=backends)
    try:
        store.recover()
        return _observables(store)
    finally:
        store.close()


def test_every_crash_point_recovers_the_surviving_frames_or_raises(journal):
    directory, frames, files = journal
    last_segment = {shard: max(s for sh, s in files if sh == shard) for shard in range(NUM_SHARDS)}

    @lru_cache(maxsize=None)
    def expected(shard, segment, cut):
        store = ShardedGraphStore(num_shards=NUM_SHARDS, registry=MetricsRegistry())
        for index, shard_frames in enumerate(frames):
            for frame in shard_frames:
                if index != shard or frame.segment != segment or frame.end <= cut:
                    _apply(store.shards[index], frame)
        return _observables(store)

    checked = 0
    for shard, segment, kind, offset, name in _all_points(frames, files):
        path = os.path.join(shard_dir(directory, shard), f"segment-{segment:08d}.log")
        pristine = files[shard, segment]
        if kind == "cut":
            damaged = pristine[:offset]
        else:
            damaged = pristine[:offset] + bytes((pristine[offset] ^ 0xFF,)) + pristine[offset + 1:]
        clean_cut = kind == "cut" and name == "boundary"
        where = (shard, segment, kind, offset, name)
        for repair in (False, True):
            with open(path, "wb") as fh:
                fh.write(damaged)
            try:
                recovered = _recover(directory, repair)
            except StoreBackendError:
                assert not clean_cut, where
                continue
            finally:
                checked += 1
            assert clean_cut or (repair and segment == last_segment[shard]), where
            assert recovered == expected(shard, segment, offset), where
            if repair:
                # The repaired shard reads clean and holds exactly the
                # surviving frames.
                survivors = [
                    frame for frame in frames[shard]
                    if frame.segment != segment or frame.end <= offset
                ]
                assert reference.read_log(shard_dir(directory, shard)) == survivors, where
        with open(path, "wb") as fh:
            fh.write(pristine)
    assert checked > 500
