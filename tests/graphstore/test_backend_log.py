"""Crash-safety contract of the append-only log backend.

Every test here simulates a failure mode a real deployment hits: a
process killed mid-flush (torn final frame), bit rot (crc mismatch), a
lost rotation segment (sequence gap), and operator error (fresh-create
over live segments).  The contract under test: damage anywhere but the
tail of the last segment always raises
:class:`~repro.errors.StoreBackendError`; a torn tail raises unless the
caller opts into ``repair_torn_tail=True``, which truncates exactly the
partial frame and keeps every intact record before it.
"""

import gc
import os
import struct
import sys
import warnings
import zlib

import pytest

from repro.errors import StoreBackendError
from repro.graphstore import backend as backend_module
from repro.graphstore.backend import (
    FRAME_HEADER,
    OP_EDGE,
    OP_MESSAGE,
    SEGMENT_HEADER,
    LogBackend,
    segment_name,
    shard_backends,
    shard_dir,
)
from repro.graphstore.store import GraphStore
from repro.lang.ir import CLIENT, EXTERNAL
from repro.lang.message import Message, MessageUid
from repro.telemetry import MetricsRegistry


def _chain(n=6, seq_base=1, dest_tail=CLIENT):
    """A root plus a linear causal chain of ``n`` messages."""
    root = Message(MessageUid("h", 1, seq_base), "req", EXTERNAL, "A")
    msgs = [root]
    for i in range(n):
        prev = msgs[-1]
        dest = dest_tail if i == n - 1 else f"C{i}"
        msgs.append(
            Message(
                MessageUid("h", 1, seq_base + 1 + i), f"m{i}", prev.dest, dest,
                cause_uids=frozenset({prev.uid}), root_uid=root.uid,
            )
        )
    return msgs


def _observables(store, roots):
    return {
        "node_count": store.node_count(),
        "uids": sorted(store.all_uids()),
        "signatures": {r: store.completed_signature(r) for r in roots},
        "members": {r: store.graph_members(r) for r in roots},
    }


def _write_store(directory, streams, registry=None, **log_options):
    registry = registry if registry is not None else MetricsRegistry()
    backend = LogBackend(str(directory), registry=registry, **log_options)
    store = GraphStore(registry=registry, backend=backend)
    for stream in streams:
        store.add_messages(stream)
        # Per-stream durability point (batch handoff itself never
        # flushes): rotation decisions happen here, between flushes.
        store.flush_journal()
    return store


def _reopen(directory, **kwargs):
    registry = MetricsRegistry()
    backend = LogBackend(
        str(directory), create=False, registry=registry, **kwargs
    )
    store = GraphStore(registry=registry, backend=backend)
    store.recover()
    return store


def _leak_free(monkeypatch, action):
    """Run ``action`` as under ``-W error::ResourceWarning``, collect, and
    return every warning that escaped a finaliser (an unclosed file)."""
    leaked = []
    monkeypatch.setattr(sys, "unraisablehook", leaked.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        action()
        gc.collect()
    return [str(unraisable.exc_value) for unraisable in leaked]


def _only_segment(directory):
    segments = sorted(
        name for name in os.listdir(directory) if name.startswith("segment-")
    )
    assert len(segments) == 1
    return os.path.join(directory, segments[0])


class TestRoundTrip:
    def test_reopen_rebuilds_identical_store(self, tmp_path):
        msgs = _chain()
        store = _write_store(tmp_path, [msgs])
        expected = _observables(store, [msgs[0].uid])
        store.close()

        recovered = _reopen(tmp_path)
        assert _observables(recovered, [msgs[0].uid]) == expected
        assert recovered.node_count() == len(msgs)

    def test_encode_decode_message_round_trip(self, tmp_path):
        msgs = _chain(3)
        fan_in = Message(
            MessageUid("host-x", 7, 99), "join", "A", CLIENT,
            cause_uids=frozenset(m.uid for m in msgs),
            root_uid=msgs[0].uid, sampled=False,
        )
        backend = LogBackend(str(tmp_path))
        backend.journal_message(fan_in)
        backend.close()
        reopened = LogBackend(str(tmp_path), create=False)
        [(op, (decoded,))] = list(reopened.iter_ops())
        reopened.close()
        assert decoded == fan_in.with_causes(fan_in.cause_uids)

    def test_maintenance_ops_survive_reopen(self, tmp_path):
        a, b = _chain(4, seq_base=1), _chain(4, seq_base=100)
        store = _write_store(tmp_path, [a, b])
        assert store.evict_graph(a[0].uid) == len(a)
        store.close()

        recovered = _reopen(tmp_path)
        assert recovered.completed_signature(a[0].uid) is None
        assert recovered.completed_signature(b[0].uid) is not None
        assert recovered.node_count() == len(b)

    def test_rotation_spreads_segments_and_recovers(self, tmp_path):
        streams = [_chain(6, seq_base=1 + 50 * i) for i in range(8)]
        store = _write_store(tmp_path, streams, segment_bytes=256)
        expected = _observables(store, [s[0].uid for s in streams])
        store.close()
        segments = [n for n in os.listdir(tmp_path) if n.startswith("segment-")]
        assert len(segments) > 2

        recovered = _reopen(tmp_path)
        assert _observables(recovered, [s[0].uid for s in streams]) == expected

    def test_recover_requires_empty_store(self, tmp_path):
        msgs = _chain()
        store = _write_store(tmp_path, [msgs])
        store.close()
        registry = MetricsRegistry()
        backend = LogBackend(str(tmp_path), create=False, registry=registry)
        recovered = GraphStore(registry=registry, backend=backend)
        recovered.add_message(_chain(1, seq_base=999)[0])
        with pytest.raises(StoreBackendError):
            recovered.recover()

    def test_recovery_does_not_refire_completions_or_rejournal(self, tmp_path):
        msgs = _chain()
        store = _write_store(tmp_path, [msgs])
        store.close()
        size_before = os.path.getsize(_only_segment(tmp_path))

        registry = MetricsRegistry()
        backend = LogBackend(str(tmp_path), create=False, registry=registry)
        recovered = GraphStore(registry=registry, backend=backend)
        fired = []
        recovered.subscribe_path_complete(fired.append)
        assert recovered.recover() == len(msgs)
        recovered.close()
        # Replay must not re-append the ops it is reading back, and the
        # completion the original run already delivered must stay delivered.
        assert os.path.getsize(_only_segment(tmp_path)) == size_before
        assert fired == []


class TestTornWrites:
    def test_kill_mid_flush_raises_then_repairs(self, tmp_path):
        """Chop a flush partway through a frame: the crash signature."""
        msgs = _chain(8)
        store = _write_store(tmp_path, [msgs])
        store.close()
        path = _only_segment(tmp_path)
        os.truncate(path, os.path.getsize(path) - 3)

        with pytest.raises(StoreBackendError, match="torn tail"):
            _reopen(tmp_path)
        recovered = _reopen(tmp_path, repair_torn_tail=True)
        # Every record before the torn one survives intact.
        assert recovered.node_count() == len(msgs) - 1
        assert msgs[-1].uid not in set(recovered.all_uids())

    def test_truncation_to_partial_header_repairs(self, tmp_path):
        store = _write_store(tmp_path, [_chain(2)])
        store.close()
        path = _only_segment(tmp_path)
        os.truncate(path, SEGMENT_HEADER.size + FRAME_HEADER.size - 1)

        with pytest.raises(StoreBackendError):
            _reopen(tmp_path)
        recovered = _reopen(tmp_path, repair_torn_tail=True)
        assert recovered.node_count() == 0

    def test_truncation_inside_segment_header_repairs_to_empty(self, tmp_path):
        store = _write_store(tmp_path, [_chain(2)])
        store.close()
        os.truncate(_only_segment(tmp_path), SEGMENT_HEADER.size - 2)

        with pytest.raises(StoreBackendError):
            _reopen(tmp_path)
        recovered = _reopen(tmp_path, repair_torn_tail=True)
        assert recovered.node_count() == 0
        recovered.add_messages(_chain(2))
        recovered.close()
        assert _reopen(tmp_path).node_count() == 3

    def test_crc_corruption_mid_sequence_is_never_repairable(self, tmp_path):
        msgs = _chain(8)
        store = _write_store(tmp_path, [msgs])
        store.close()
        path = _only_segment(tmp_path)
        with open(path, "r+b") as fh:
            fh.seek(SEGMENT_HEADER.size + FRAME_HEADER.size + 2)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_CUR)
            fh.write(bytes((byte[0] ^ 0xFF,)))

        with pytest.raises(StoreBackendError, match="crc mismatch"):
            _reopen(tmp_path)
        # A mid-sequence tear is not a crash tail: repair must refuse too.
        with pytest.raises(StoreBackendError):
            _reopen(tmp_path, repair_torn_tail=True)

    def test_torn_frame_in_non_final_segment_is_fatal(self, tmp_path):
        streams = [_chain(6, seq_base=1 + 50 * i) for i in range(8)]
        store = _write_store(tmp_path, streams, segment_bytes=256)
        store.close()
        first = os.path.join(tmp_path, segment_name(0))
        os.truncate(first, os.path.getsize(first) - 3)

        with pytest.raises(StoreBackendError, match="final segment"):
            _reopen(tmp_path, repair_torn_tail=True)

    def test_missing_segment_is_a_gap_error(self, tmp_path):
        streams = [_chain(6, seq_base=1 + 50 * i) for i in range(8)]
        store = _write_store(tmp_path, streams, segment_bytes=256)
        store.close()
        os.remove(os.path.join(tmp_path, segment_name(1)))

        with pytest.raises(StoreBackendError, match="gaps"):
            _reopen(tmp_path)

    def test_wrong_magic_and_version_are_fatal(self, tmp_path):
        store = _write_store(tmp_path, [_chain(2)])
        store.close()
        path = _only_segment(tmp_path)
        with open(path, "r+b") as fh:
            fh.write(b"NOPE")
        with pytest.raises(StoreBackendError, match="magic"):
            _reopen(tmp_path)


class TestLifecycle:
    def test_fresh_create_refuses_existing_segments(self, tmp_path):
        store = _write_store(tmp_path, [_chain(2)])
        store.close()
        with pytest.raises(StoreBackendError, match="refusing to create"):
            LogBackend(str(tmp_path), registry=MetricsRegistry())

    def test_reopen_of_empty_directory_fails(self, tmp_path):
        with pytest.raises(StoreBackendError, match="no log segments"):
            LogBackend(str(tmp_path), create=False, registry=MetricsRegistry())

    def test_write_after_close_raises(self, tmp_path):
        store = _write_store(tmp_path, [_chain(2)])
        store.close()
        with pytest.raises(StoreBackendError, match="closed"):
            store.add_message(_chain(1, seq_base=500)[0])

    def test_close_is_idempotent(self, tmp_path):
        store = _write_store(tmp_path, [_chain(2)])
        store.close()
        store.close()

    def test_bad_fsync_policy_rejected(self, tmp_path):
        with pytest.raises(StoreBackendError, match="fsync"):
            LogBackend(str(tmp_path), fsync="always", registry=MetricsRegistry())

    def test_backend_diagnostics_are_volatile_metrics(self, tmp_path):
        """Backend counters must never enter the cross-backend digest."""
        from repro.sim.events import is_volatile_metric_key

        registry = MetricsRegistry()
        store = _write_store(tmp_path, [_chain(4)], registry=registry)
        store.close()
        backend_keys = [
            key for key in registry.snapshot()["metrics"]
            if key.startswith("graphstore.backend_")
        ]
        assert backend_keys  # the backend did report diagnostics
        assert all(is_volatile_metric_key(key) for key in backend_keys)


class TestShardFleet:
    def test_fresh_fleet_checks_every_shard_before_creating_any(
        self, tmp_path, monkeypatch
    ):
        _write_store(shard_dir(str(tmp_path), 2), [_chain(2)]).close()

        def create():
            with pytest.raises(StoreBackendError, match="shard-02"):
                shard_backends("log", 4, str(tmp_path), registry=MetricsRegistry())

        assert _leak_free(monkeypatch, create) == []
        for index in (0, 1):
            directory = shard_dir(str(tmp_path), index)
            assert not os.path.isdir(directory) or not os.listdir(directory)

    def test_reopen_closes_opened_shards_when_a_later_one_is_torn(
        self, tmp_path, monkeypatch
    ):
        for index in range(4):
            chain = _chain(4, seq_base=1 + 50 * index)
            _write_store(shard_dir(str(tmp_path), index), [chain]).close()
        torn = _only_segment(shard_dir(str(tmp_path), 3))
        os.truncate(torn, os.path.getsize(torn) - 3)

        def reopen():
            with pytest.raises(StoreBackendError, match="torn tail"):
                shard_backends(
                    "log", 4, str(tmp_path), create=False, registry=MetricsRegistry()
                )

        assert _leak_free(monkeypatch, reopen) == []


def _frame_payloads(path):
    """Every payload of one segment file, in order (plain struct walk)."""
    with open(path, "rb") as fh:
        data = fh.read()
    payloads, pos = [], SEGMENT_HEADER.size
    while pos < len(data):
        length, _crc = FRAME_HEADER.unpack_from(data, pos)
        payloads.append(data[pos + FRAME_HEADER.size:pos + FRAME_HEADER.size + length])
        pos += FRAME_HEADER.size + length
    return payloads


def _write_payload(directory, payload):
    """Journal one raw payload as a crc-valid frame after a short chain."""
    backend = LogBackend(str(directory), registry=MetricsRegistry())
    store = GraphStore(registry=MetricsRegistry(), backend=backend)
    store.add_messages(_chain(2))
    backend.append_frame((payload, len(payload), zlib.crc32(payload)), b"")
    store.close()


def _text(value):
    raw = value if isinstance(value, bytes) else value.encode("utf-8")
    return struct.pack("<H", len(raw)) + raw


class TestCorruptPayloads:
    """crc-valid frames the writer never produces: typed errors, never a crash."""

    def test_non_utf8_string_is_a_typed_error_naming_segment_and_offset(self, tmp_path):
        edge = (
            bytes((OP_EDGE,)) + _text(b"\xff\xfe") + struct.pack("<QQ", 1, 2)
            + _text("a") + struct.pack("<QQ", 3, 4)
        )
        _write_payload(tmp_path, edge)
        offset = SEGMENT_HEADER.size + sum(
            FRAME_HEADER.size + len(p) for p in _frame_payloads(_only_segment(tmp_path))[:-1]
        )
        with pytest.raises(StoreBackendError, match="not in UTF-8") as info:
            _reopen(tmp_path)
        assert f"byte {offset} of {segment_name(0)}" in str(info.value)

    def test_unknown_flag_bits_are_rejected(self, tmp_path):
        message = (
            bytes((OP_MESSAGE, 0x04)) + _text("h") + _text("t") + _text("A") + _text("B")
            + struct.pack("<I", 0) + struct.pack("<QQ", 1, 99)
        )
        _write_payload(tmp_path, message)
        with pytest.raises(StoreBackendError, match="flag bits"):
            _reopen(tmp_path)

    @pytest.mark.parametrize("cut", [1, 16, 17])
    def test_short_and_long_tails_are_typed_errors(self, tmp_path, cut):
        msgs = _chain(2)
        store = _write_store(tmp_path, [msgs])
        store.close()
        hop = _frame_payloads(_only_segment(tmp_path))[-1]
        damaged = hop[:-cut] if cut != 17 else hop + b"\0"
        _write_payload(tmp_path / "damaged", damaged)
        with pytest.raises(StoreBackendError, match="needs .* payload bytes, carries"):
            _reopen(tmp_path / "damaged")


class TestOneValidatingPass:
    """Open validates every frame; recovery trusts what open validated."""

    def test_every_frame_crc_is_checked_exactly_once(self, tmp_path, monkeypatch):
        streams = [_chain(6, seq_base=1 + 50 * i) for i in range(8)]
        store = _write_store(tmp_path, streams, segment_bytes=256)
        store.close()
        payloads = []
        for name in sorted(os.listdir(tmp_path)):
            payloads += _frame_payloads(os.path.join(tmp_path, name))
        checked = []
        crc32 = backend_module._CRC32

        def counting_crc32(data, *start):
            if not start:
                checked.append(bytes(data))
            return crc32(data, *start)

        monkeypatch.setattr(backend_module, "_CRC32", counting_crc32)
        recovered = _reopen(tmp_path)
        assert sorted(checked) == sorted(payloads)
        assert recovered.node_count() == sum(len(s) for s in streams)

    def test_frames_appended_after_open_are_validated(self, tmp_path):
        store = _write_store(tmp_path, [_chain(4)])
        store.close()
        backend = LogBackend(str(tmp_path), create=False, registry=MetricsRegistry())
        store = GraphStore(registry=MetricsRegistry(), backend=backend)
        store.add_messages(_chain(3, seq_base=100))
        store.flush_journal()
        assert len(list(backend.iter_ops())) == 5 + 4
        path = _only_segment(tmp_path)
        with open(path, "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            byte = fh.read(1)
            fh.seek(-1, os.SEEK_END)
            fh.write(bytes((byte[0] ^ 0xFF,)))
        with pytest.raises(StoreBackendError, match="crc mismatch"):
            list(backend.iter_ops())
        backend.close()

    def test_segment_shrunk_after_open_raises(self, tmp_path):
        store = _write_store(tmp_path, [_chain(4)])
        store.close()
        backend = LogBackend(str(tmp_path), create=False, registry=MetricsRegistry())
        path = _only_segment(tmp_path)
        os.truncate(path, os.path.getsize(path) - 3)
        with pytest.raises(StoreBackendError, match="validated"):
            GraphStore(registry=MetricsRegistry(), backend=backend).recover()
        backend.close()
