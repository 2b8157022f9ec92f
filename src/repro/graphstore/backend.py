"""Pluggable graph-store backends: in-memory and append-only log.

The paper offloads causal graphs to an external store (Apache Titan)
precisely so provenance capture is not bounded by one process's RAM and
survives monitoring-host restarts.  This module extracts that seam as a
narrow :class:`GraphStoreBackend` protocol behind the existing
:class:`~repro.graphstore.store.GraphStore` /
:class:`~repro.graphstore.sharded.ShardedGraphStore` API:

* :class:`MemoryBackend` — the default.  Journaling is disabled and the
  store behaves bit-identically to the pre-backend code (the hot path
  pays one ``is None`` check per write).
* :class:`LogBackend` — an append-only binary log.  Every mutation
  (message, raw edge, eviction, abandonment, dangling-edge repair) is
  framed as a crc32-checked record and appended to a rotated segment
  sequence; reopening the directory replays the log to rebuild the
  exact store state, so experiments survive restarts and stores larger
  than RAM stream from disk through ``mmap`` during recovery.

On-disk format (``log`` backend)
--------------------------------
Each segment file ``segment-%08d.log`` starts with a 12-byte header::

    magic   b"RGSL"         (4 bytes)
    version u32 = 1         (little-endian)
    index   u32             (the segment's own sequence number)

followed by frames::

    length  u32             payload byte count
    crc32   u32             zlib.crc32 of the payload
    payload length bytes    opcode byte + op-specific body

Records never span segments: appends are buffered and each flush lands
entirely in the current segment; rotation happens *between* flushes once
a segment exceeds ``segment_bytes``.  Message uids are encoded as the
paper's ``<address, process_id, seq>`` triple; cause-uid sets are
encoded **sorted** so the on-disk bytes are canonical — a ``frozenset``
iteration order (which varies with the interpreter hash seed) must never
leak into a persistence artifact.  ``OP_MESSAGE`` payloads group all
string fields (addresses, type, endpoints) ahead of the fixed-width
``<process_id, seq>`` tails: the string block repeats across records (a
simulation's vocabulary is tiny) and is cached as one pre-encoded
skeleton, leaving only one struct pack per journaled message.

One append path
---------------
Every record reaches the segment files through
:meth:`LogBackend.append_frame` (skeleton entry + packed uid tail) and
:meth:`LogBackend.flush`: the ``journal_*`` hooks the store drives, and
the event engine's converged replay (:mod:`repro.sim.events`), which
renders a frozen request class's frames from the runtime's uid counters
instead of re-executing the request.  The closed check, record/byte
accounting, the ``flush_bytes`` auto-flush and rotate-between-flushes
therefore exist once, and a replayed journal is byte-identical to a
live one.  ``flush_tap`` and :func:`frame_parts` are the read side of
that seam: what a live execution flushed, split back into skeleton
entries and uid tails; :func:`pack_tail` packs a tail again, so the
tail encoding stays in this module.

Durability and crash-recovery contract
--------------------------------------
``flush()`` is the durability point: buffered frames are written to the
OS in one call and — under the default ``fsync="flush"`` policy —
fsynced before it returns (``fsync="close"`` defers the sync to
rotation/close; ``"never"`` leaves it to the OS).  Recovery is strict,
mirroring PR 8's :class:`~repro.errors.ParityArtifactError` pattern: a
bad-crc frame, a truncated frame, a damaged header, or a gap in the
rotated segment sequence raises :class:`~repro.errors.StoreBackendError`
— a damaged log must read as "the store is torn", never load as a
silently truncated graph.  The one sanctioned repair: a torn *tail* (the
final bytes of the final segment, the signature of a crash mid-flush)
can be truncated away by opening with ``repair_torn_tail=True``, which
drops only the partial frame and keeps every intact record before it.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from typing import Iterator, List, Optional, Tuple

from repro.errors import StoreBackendError
from repro.lang.message import Message, MessageUid
from repro.telemetry import MetricsRegistry, get_registry

#: The selectable backend kinds (`--store-backend`).
BACKENDS = ("memory", "log")

#: Segment-file constants (see the module docstring for the layout).
SEGMENT_MAGIC = b"RGSL"
SEGMENT_VERSION = 1
SEGMENT_HEADER = struct.Struct("<4sII")
FRAME_HEADER = struct.Struct("<II")
#: Hot-path aliases (module-global loads beat attribute chains).
#: ``zlib.crc32`` is already unsigned on Python 3 — no masking needed.
_FRAME_PACK = FRAME_HEADER.pack
_FRAME_OVERHEAD = FRAME_HEADER.size
_CRC32 = zlib.crc32
SEGMENT_NAME_RE = re.compile(r"^segment-(\d{8})\.log$")

#: Default rotation threshold and auto-flush buffer bound (bytes).
DEFAULT_SEGMENT_BYTES = 8 * 1024 * 1024
DEFAULT_FLUSH_BYTES = 64 * 1024

#: fsync policies: sync every flush, only at rotation/close, or never.
FSYNC_POLICIES = ("flush", "close", "never")

#: Record opcodes (one byte, first byte of every payload).
OP_MESSAGE = 1
OP_EDGE = 2
OP_EVICT = 3
OP_ABANDON = 4
OP_REPAIR = 5

_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64Q = struct.Struct("<QQ")

#: Message flag bits.
_FLAG_HAS_ROOT = 1
_FLAG_SAMPLED = 2

#: Precomputed ``(OP_MESSAGE, flags)`` prefixes for the four flag states.
_MSG_PREFIXES = tuple(bytes((OP_MESSAGE, flags)) for flags in range(4))


def segment_name(index: int) -> str:
    return f"segment-{index:08d}.log"


class GraphStoreBackend:
    """Narrow journaling protocol the store drives its backend through.

    ``journaling`` tells the store whether to call the ``journal_*``
    hooks at all (the memory backend keeps the hot path branch-free
    beyond one ``is None`` check).  ``flush()`` is the durability point;
    ``close()`` must be idempotent.
    """

    kind: str = "abstract"
    journaling: bool = False

    def journal_message(self, message: Message) -> None:  # pragma: no cover
        raise NotImplementedError

    def journal_edge(self, cause: MessageUid, effect: MessageUid) -> None:  # pragma: no cover
        raise NotImplementedError

    def journal_evict(self, root: MessageUid) -> None:  # pragma: no cover
        raise NotImplementedError

    def journal_abandon(self, root: MessageUid) -> None:  # pragma: no cover
        raise NotImplementedError

    def journal_repair(self) -> None:  # pragma: no cover
        raise NotImplementedError

    def flush(self) -> None:
        """Make every journaled record durable (no-op by default)."""

    def close(self) -> None:
        """Flush and release resources (idempotent, no-op by default)."""


class MemoryBackend(GraphStoreBackend):
    """The default in-process backend: no journal, no persistence.

    Exists so every store has a ``backend`` with a ``kind`` (the replay
    eligibility check keys off it: ``memory`` and ``log`` are eligible)
    while the write path stays exactly the pre-backend code.
    """

    kind = "memory"
    journaling = False


# -- binary encoding -----------------------------------------------------------


#: Length-prefixed encodings of recently seen strings.  The strings a
#: journal writes — host addresses, message types, component names —
#: come from a tiny, fixed vocabulary, so this bounded cache turns the
#: per-record hot path's dominant cost (encode + length-prefix per
#: string field) into a dict hit.
_STR_CACHE: dict = {}
_STR_CACHE_MAX = 4096


def _encode_str(text: str) -> bytes:
    cached = _STR_CACHE.get(text)
    if cached is not None:
        return cached
    raw = text.encode("utf-8")
    if len(raw) > 0xFFFF:
        raise StoreBackendError(f"string too long for log record ({len(raw)} bytes)")
    encoded = _U16.pack(len(raw)) + raw
    if len(_STR_CACHE) < _STR_CACHE_MAX:
        _STR_CACHE[text] = encoded
    return encoded


def _encode_uid(uid: MessageUid) -> bytes:
    return _encode_str(uid[0]) + _U64Q.pack(uid[1], uid[2])


#: Pre-encoded ``OP_MESSAGE`` string blocks keyed by the record's string
#: tuple (flags + addresses + type + endpoints).  Each entry is
#: ``(skeleton_bytes, len(skeleton_bytes), crc32(skeleton_bytes))`` —
#: the partial crc lets the journal hot path finish the frame crc
#: incrementally over just the numeric tail.  Distinct tuples are
#: bounded by the scenario's path templates × hosts, so in practice
#: every journaled message after warm-up reduces to one dict hit plus
#: one struct pack of its uid tails.
_SKELETON_CACHE: dict = {}
_SKELETON_CACHE_MAX = 4096

#: ``struct.Struct("<nQ")`` per tail width; the common record shapes
#: (bare root, root + one cause) get dedicated structs so the hot path
#: packs without building an argument list.
_TAIL4 = struct.Struct("<4Q")
_TAIL6 = struct.Struct("<6Q")
_TAIL_STRUCTS: dict = {2: _U64Q, 4: _TAIL4, 6: _TAIL6}


def pack_tail(values) -> bytes:
    """Pack a uid tail from its flat ``process_id, seq, ...`` ints.

    The tail encoding for every width without a dedicated struct above:
    odd-shaped records in :func:`_message_parts`, and all the tails of
    one execution at once when converged replay renders a frozen class
    (:mod:`repro.sim.events`) — which therefore packs nothing itself.
    """
    count = len(values)
    cached = _TAIL_STRUCTS.get(count)
    if cached is None:
        cached = _TAIL_STRUCTS[count] = struct.Struct("<%dQ" % count)
    return cached.pack(*values)


class _Reader:
    """Cursor over one decoded payload (bounds-checked reads)."""

    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        end = self.pos + n
        if end > len(self.data):
            raise StoreBackendError(
                "log record payload ends mid-field (corrupt frame passed crc?)"
            )
        chunk = self.data[self.pos:end]
        self.pos = end
        return chunk

    def u16(self) -> int:
        return _U16.unpack(self.take(2))[0]

    def u32(self) -> int:
        return _U32.unpack(self.take(4))[0]

    def text(self) -> str:
        return self.take(self.u16()).decode("utf-8")

    def uid(self) -> MessageUid:
        address = self.text()
        process_id, seq = _U64Q.unpack(self.take(16))
        return MessageUid(address, process_id, seq)

    @property
    def exhausted(self) -> bool:
        return self.pos == len(self.data)


def _message_parts(message: Message):
    """``(skeleton_entry, tail)`` for one ``OP_MESSAGE`` record.

    ``skeleton_entry`` is the :data:`_SKELETON_CACHE` triple
    ``(skeleton, length, crc)``; ``tail`` is the packed
    ``<process_id, seq>`` pairs of the uid, the root (if any), and each
    cause, in that order.  Cause uids are sorted for canonical bytes.
    """
    root = message.root_uid
    uid = message.uid
    causes = message.cause_uids
    n = len(causes)
    if root is not None and n == 1:
        # Dominant shape — a rooted single-cause hop — taken with the
        # least possible work: one key tuple, one cache hit, one pack.
        (cause,) = causes
        flags = (
            _FLAG_HAS_ROOT | _FLAG_SAMPLED
            if message.sampled
            else _FLAG_HAS_ROOT
        )
        key = (
            flags, uid[0], message.msg_type, message.src, message.dest,
            root[0], cause[0],
        )
        entry = _SKELETON_CACHE.get(key)
        if entry is not None:
            return entry, _TAIL6.pack(
                uid[1], uid[2], root[1], root[2], cause[1], cause[2]
            )
        causes = (cause,)
    else:
        flags = 0
        if root is not None:
            flags |= _FLAG_HAS_ROOT
        if message.sampled:
            flags |= _FLAG_SAMPLED
        # ``cause_key`` distinguishes record shapes by *type*: ``None``
        # for no causes, a bare address string for a single cause, a
        # tuple for the rest.
        if n == 0:
            causes = ()
            cause_key = None
        elif n == 1:
            causes = tuple(causes)
            cause_key = causes[0][0]
        else:
            causes = sorted(causes)
            cause_key = tuple(cause[0] for cause in causes)
        key = (
            flags, uid[0], message.msg_type, message.src, message.dest,
            None if root is None else root[0], cause_key,
        )
        entry = _SKELETON_CACHE.get(key)
    if entry is None:
        parts = [
            _MSG_PREFIXES[flags],
            _encode_str(uid[0]),
            _encode_str(message.msg_type),
            _encode_str(message.src),
            _encode_str(message.dest),
        ]
        if root is not None:
            parts.append(_encode_str(root[0]))
        parts.append(_U32.pack(n))
        for cause in causes:
            parts.append(_encode_str(cause[0]))
        skeleton = b"".join(parts)
        entry = (skeleton, len(skeleton), _CRC32(skeleton))
        if len(_SKELETON_CACHE) < _SKELETON_CACHE_MAX:
            _SKELETON_CACHE[key] = entry
    if root is not None and n == 1:
        cause = causes[0]
        return entry, _TAIL6.pack(
            uid[1], uid[2], root[1], root[2], cause[1], cause[2]
        )
    if root is None and n == 0:
        return entry, _U64Q.pack(uid[1], uid[2])
    tails = [uid[1], uid[2]]
    if root is not None:
        tails.append(root[1])
        tails.append(root[2])
    for cause in causes:
        tails.append(cause[1])
        tails.append(cause[2])
    return entry, pack_tail(tails)


def decode_payload(payload: bytes):
    """Decode one payload into ``(opcode, args)``.

    A crc-valid but undecodable payload (unknown opcode, short body,
    trailing bytes) is corruption, not a torn tail, and always raises
    :class:`~repro.errors.StoreBackendError`.
    """
    if not payload:
        raise StoreBackendError("empty log record payload")
    op = payload[0]
    reader = _Reader(payload)
    reader.pos = 1
    if op == OP_MESSAGE:
        flags = reader.take(1)[0]
        uid_address = reader.text()
        msg_type = reader.text()
        src = reader.text()
        dest = reader.text()
        root_address = reader.text() if flags & _FLAG_HAS_ROOT else None
        cause_addresses = [reader.text() for _ in range(reader.u32())]
        uid = MessageUid(uid_address, *_U64Q.unpack(reader.take(16)))
        root = None
        if root_address is not None:
            root = MessageUid(root_address, *_U64Q.unpack(reader.take(16)))
        causes = frozenset(
            MessageUid(address, *_U64Q.unpack(reader.take(16)))
            for address in cause_addresses
        )
        message = Message(
            uid, msg_type, src, dest,
            cause_uids=causes,
            root_uid=root,
            sampled=bool(flags & _FLAG_SAMPLED),
        )
        args: Tuple = (message,)
    elif op == OP_EDGE:
        args = (reader.uid(), reader.uid())
    elif op in (OP_EVICT, OP_ABANDON):
        args = (reader.uid(),)
    elif op == OP_REPAIR:
        args = ()
    else:
        raise StoreBackendError(f"unknown log record opcode {op}")
    if not reader.exhausted:
        raise StoreBackendError(
            f"log record opcode {op} carries {len(payload) - reader.pos} "
            "trailing bytes (corrupt frame passed crc?)"
        )
    return op, args


def frame_parts(blob: bytes) -> List[Tuple[Tuple[bytes, int, int], List[MessageUid], bytes]]:
    """Invert one flushed blob into ``(skeleton_entry, uids, tail)`` per frame.

    What :meth:`LogBackend.append_frame` needs to write each frame
    again: the payload split into its string block (as a
    :data:`_SKELETON_CACHE`-shaped entry) and the packed
    ``<process_id, seq>`` tail, with the uids the tail names, in tail
    order — uid, root, sorted causes for a message; the root for an
    eviction or abandonment; none for a repair.  Converged replay
    (:mod:`repro.sim.events`) reads a warm-up execution's flushes with
    this to learn the frames it will render.  An edge record's uids are
    interleaved with their addresses and a repair has none: both come
    back all skeleton, frames that repeat verbatim or not at all.
    """
    parts = []
    pos = 0
    while pos < len(blob):
        length, _crc = FRAME_HEADER.unpack_from(blob, pos)
        pos += _FRAME_OVERHEAD
        payload = blob[pos:pos + length]
        pos += length
        op, args = decode_payload(payload)
        if op == OP_MESSAGE:
            (message,) = args
            uids = [message.uid]
            if message.root_uid is not None:
                uids.append(message.root_uid)
            uids += sorted(message.cause_uids)
        else:
            uids = [] if op == OP_EDGE else list(args)
        split = length - _U64Q.size * len(uids)
        skeleton = payload[:split]
        parts.append(((skeleton, split, _CRC32(skeleton)), uids, payload[split:]))
    return parts


def _segment_indices(directory: str) -> List[int]:
    """Sorted indices of the segment files in ``directory`` (none if absent)."""
    if not os.path.isdir(directory):
        return []
    matches = map(SEGMENT_NAME_RE.match, os.listdir(directory))
    return sorted(int(match.group(1)) for match in matches if match)


def _refuse_fresh_over(directory: str) -> None:
    """A fresh log never mixes with segments already in ``directory``."""
    existing = _segment_indices(directory)
    if existing:
        raise StoreBackendError(
            f"refusing to create a fresh log over {len(existing)} existing "
            f"segment(s) in {directory} — reopen with create=False or "
            "point --store-dir at an empty directory"
        )


class LogBackend(GraphStoreBackend):
    """Append-only segmented binary log under one directory.

    Parameters
    ----------
    directory:
        Segment directory.  One store (or one shard — see
        :func:`shard_backends`) per directory.
    create:
        ``True`` starts a fresh log and *refuses* a directory that
        already holds segments (no silent state mixing); ``False``
        reopens an existing log, validating every frame of every
        segment (see the module docstring's recovery contract).
    segment_bytes / flush_bytes:
        Rotation threshold and the auto-flush buffer bound.
    fsync:
        ``"flush"`` (default), ``"close"``, or ``"never"``.
    repair_torn_tail:
        With ``create=False``: truncate a torn final frame instead of
        raising.  Only the tail of the *last* segment is repairable.
    registry:
        Telemetry registry for the ``graphstore.backend_*`` diagnostics
        (volatile keys — they describe the backend, not the run, and
        are excluded from the cross-backend digest contract).
    """

    kind = "log"
    journaling = True

    def __init__(
        self,
        directory: str,
        create: bool = True,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        flush_bytes: int = DEFAULT_FLUSH_BYTES,
        fsync: str = "flush",
        repair_torn_tail: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if segment_bytes < 1:
            raise StoreBackendError(f"segment_bytes must be >= 1, got {segment_bytes}")
        if fsync not in FSYNC_POLICIES:
            raise StoreBackendError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        self.directory = directory
        self.segment_bytes = int(segment_bytes)
        self.flush_bytes = int(flush_bytes)
        self.fsync = fsync
        self.telemetry = registry if registry is not None else get_registry()
        self._m_flushes = self.telemetry.counter("graphstore.backend_flushes")
        self._m_records = self.telemetry.counter("graphstore.backend_records")
        self._m_bytes = self.telemetry.counter("graphstore.backend_bytes")
        self._m_fsyncs = self.telemetry.counter("graphstore.backend_fsyncs")
        self._m_rotations = self.telemetry.counter("graphstore.backend_rotations")
        self._m_replayed = self.telemetry.counter("graphstore.backend_replayed_ops")
        self._m_repairs = self.telemetry.counter("graphstore.backend_torn_tail_repairs")
        self._buffer: List[bytes] = []
        self._buffered_bytes = 0
        self._buffered_records = 0
        self._closed = False
        self._fh = None
        #: Optional ``callable(backend, blob)`` handed every flushed
        #: blob.  Emit-only; converged replay sets it around warm-up
        #: executions to observe what each one wrote, flush by flush.
        self.flush_tap = None
        os.makedirs(directory, exist_ok=True)
        if create:
            _refuse_fresh_over(directory)
            self._segment_index = 0
            self._open_segment(0, fresh=True)
        else:
            existing = _segment_indices(directory)
            if not existing:
                raise StoreBackendError(
                    f"no log segments to reopen in {directory}"
                )
            if existing != list(range(len(existing))):
                missing = sorted(set(range(existing[-1] + 1)) - set(existing))
                raise StoreBackendError(
                    f"rotated segment sequence in {directory} has gaps "
                    f"(missing indices {missing}) — the log is torn and "
                    "cannot be trusted"
                )
            self._validate_segments(repair_torn_tail)
            self._segment_index = existing[-1]
            self._open_segment(self._segment_index, fresh=False)

    # -- segment files -----------------------------------------------------------

    def _segment_path(self, index: int) -> str:
        return os.path.join(self.directory, segment_name(index))

    def _open_segment(self, index: int, fresh: bool) -> None:
        path = self._segment_path(index)
        if fresh:
            self._fh = open(path, "xb")
            self._fh.write(SEGMENT_HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, index))
            self._fh.flush()
        else:
            self._fh = open(path, "ab")

    def _rotate(self) -> None:
        self._sync(force=self.fsync in ("flush", "close"))
        self._fh.close()
        self._segment_index += 1
        self._open_segment(self._segment_index, fresh=True)
        self._m_rotations.inc()

    def _sync(self, force: bool) -> None:
        if force:
            self._fh.flush()
            os.fsync(self._fh.fileno())
            self._m_fsyncs.inc()

    # -- validation / recovery ---------------------------------------------------

    def _read_segment(self, index: int, is_last: bool, repair: bool) -> Iterator[bytes]:
        """Yield every payload of one segment, enforcing the torn contract."""
        import mmap

        path = self._segment_path(index)
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size < SEGMENT_HEADER.size:
                yield from self._torn(
                    path, 0, is_last, repair,
                    f"segment {segment_name(index)} is shorter than its header",
                )
                return
            view = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
            try:
                magic, version, stored = SEGMENT_HEADER.unpack_from(view, 0)
                if magic != SEGMENT_MAGIC:
                    raise StoreBackendError(
                        f"{segment_name(index)} does not start with the log magic "
                        "(not a graph-store segment)"
                    )
                if version != SEGMENT_VERSION:
                    raise StoreBackendError(
                        f"{segment_name(index)} has log version {version}, "
                        f"expected {SEGMENT_VERSION}"
                    )
                if stored != index:
                    raise StoreBackendError(
                        f"{segment_name(index)} claims segment index {stored} — "
                        "the rotated sequence has been tampered with"
                    )
                pos = SEGMENT_HEADER.size
                while pos < size:
                    if size - pos < FRAME_HEADER.size:
                        yield from self._torn(
                            path, pos, is_last, repair,
                            f"truncated frame header at byte {pos} of "
                            f"{segment_name(index)}",
                        )
                        return
                    length, crc = FRAME_HEADER.unpack_from(view, pos)
                    body_start = pos + FRAME_HEADER.size
                    if size - body_start < length:
                        yield from self._torn(
                            path, pos, is_last, repair,
                            f"frame at byte {pos} of {segment_name(index)} claims "
                            f"{length} payload bytes but only "
                            f"{size - body_start} remain",
                        )
                        return
                    payload = bytes(view[body_start:body_start + length])
                    if (zlib.crc32(payload) & 0xFFFFFFFF) != crc:
                        if body_start + length < size:
                            # Intact data follows the bad frame: a crash
                            # tail always ends at EOF (appends are
                            # buffered into one write), so this is bit
                            # rot mid-sequence — never repairable.
                            raise StoreBackendError(
                                f"crc mismatch in frame at byte {pos} of "
                                f"{segment_name(index)} with intact data "
                                "after it — the record is corrupt, not a "
                                "crash tail"
                            )
                        yield from self._torn(
                            path, pos, is_last, repair,
                            f"crc mismatch in frame at byte {pos} of "
                            f"{segment_name(index)}",
                        )
                        return
                    yield payload
                    pos = body_start + length
            finally:
                view.close()

    def _torn(
        self, path: str, keep_bytes: int, is_last: bool, repair: bool, detail: str
    ) -> Iterator[bytes]:
        """Handle a torn frame: repairable only at the tail of the last segment."""
        if not is_last:
            raise StoreBackendError(
                f"{detail} — a torn frame before the final segment means the "
                "rotated sequence is damaged beyond a crash tail"
            )
        if not repair:
            raise StoreBackendError(
                f"{detail} — the log has a torn tail (crash mid-flush); reopen "
                "with repair_torn_tail=True to truncate the partial frame"
            )
        with open(path, "r+b") as fh:
            fh.truncate(keep_bytes)
            if keep_bytes == 0:
                # The crash caught segment creation itself: restore the header
                # so the (now empty) segment stays a valid member of the chain.
                index = int(SEGMENT_NAME_RE.match(os.path.basename(path)).group(1))
                fh.write(SEGMENT_HEADER.pack(SEGMENT_MAGIC, SEGMENT_VERSION, index))
        self._m_repairs.inc()
        return
        yield  # pragma: no cover - generator shape only

    def _validate_segments(self, repair: bool) -> None:
        indices = _segment_indices(self.directory)
        for index in indices:
            for _ in self._read_segment(index, index == indices[-1], repair):
                pass

    def iter_ops(self) -> Iterator[Tuple[int, tuple]]:
        """Stream every journaled op (decoded) from the segment sequence."""
        indices = _segment_indices(self.directory)
        for index in indices:
            for payload in self._read_segment(index, index == indices[-1], False):
                yield decode_payload(payload)

    def replay_into(self, store) -> int:
        """Re-apply every journaled op to ``store`` (the recovery path).

        The caller (:meth:`GraphStore.recover`) detaches the journal,
        the fault injector, and the completion subscribers first, so
        replay mutates only graph state — it never re-journals, rolls
        fault decisions, or fires completion callbacks.
        """
        count = 0
        for op, args in self.iter_ops():
            if op == OP_MESSAGE:
                store.add_message(*args)
            elif op == OP_EDGE:
                store.add_edge(*args)
            elif op == OP_EVICT:
                store.evict_graph(*args)
            elif op == OP_ABANDON:
                store.abandon_roots(args)
            else:
                store.repair_dangling_edges()
            count += 1
        self._m_replayed.inc(count)
        return count

    # -- journal hooks -----------------------------------------------------------

    def append_frame(self, entry: Tuple[bytes, int, int], tail: bytes) -> None:
        """Buffer one frame whose payload is ``entry``'s skeleton + ``tail``.

        The one append path: every ``journal_*`` hook lands here, and so
        does converged replay when it renders a frozen class's frames
        (:mod:`repro.sim.events`) — the closed check, the record/byte
        accounting and the ``flush_bytes`` auto-flush exist once.
        ``entry`` is a :data:`_SKELETON_CACHE`-shaped ``(skeleton,
        length, crc)`` triple; the frame crc is finished incrementally
        from the cached partial crc and the payload is never
        materialised (the flush-time join concatenates header +
        skeleton + tail, which keeps the hot path allocation-light).
        """
        if self._closed:
            raise StoreBackendError("log backend is closed (write after close)")
        skeleton, skeleton_len, skeleton_crc = entry
        length = skeleton_len + len(tail)
        buffer = self._buffer
        buffer.append(_FRAME_PACK(length, _CRC32(tail, skeleton_crc)))
        buffer.append(skeleton)
        buffer.append(tail)
        self._buffered_bytes += length + _FRAME_OVERHEAD
        self._buffered_records += 1
        if self._buffered_bytes >= self.flush_bytes:
            self.flush()

    def _append(self, payload: bytes) -> None:
        self.append_frame((payload, len(payload), _CRC32(payload)), b"")

    def journal_message(self, message: Message) -> None:
        self.append_frame(*_message_parts(message))

    def journal_edge(self, cause: MessageUid, effect: MessageUid) -> None:
        self._append(bytes((OP_EDGE,)) + _encode_uid(cause) + _encode_uid(effect))

    def journal_evict(self, root: MessageUid) -> None:
        self._append(bytes((OP_EVICT,)) + _encode_uid(root))

    def journal_abandon(self, root: MessageUid) -> None:
        self._append(bytes((OP_ABANDON,)) + _encode_uid(root))

    def journal_repair(self) -> None:
        self._append(bytes((OP_REPAIR,)))

    # -- durability --------------------------------------------------------------

    def flush(self) -> None:
        """Write buffered frames (rotating first if due) and maybe fsync."""
        if self._closed or not self._buffer:
            return
        if self._fh.tell() >= self.segment_bytes:
            self._rotate()
        blob = b"".join(self._buffer)
        self._m_records.inc(self._buffered_records)
        self._buffer = []
        self._buffered_bytes = 0
        self._buffered_records = 0
        self._fh.write(blob)
        if self.flush_tap is not None:
            self.flush_tap(self, blob)
        self._m_flushes.inc()
        self._m_bytes.inc(len(blob))
        self._sync(force=self.fsync == "flush")

    def close(self) -> None:
        if self._closed:
            return
        self.flush()
        self._sync(force=self.fsync in ("flush", "close"))
        self._fh.close()
        self._closed = True


# -- factories -----------------------------------------------------------------


def shard_dir(store_dir: str, index: int) -> str:
    """Segment directory of one shard under a sharded store's root dir."""
    return os.path.join(store_dir, f"shard-{index:02d}")


def make_backend(
    kind: str,
    store_dir: Optional[str] = None,
    create: bool = True,
    registry: Optional[MetricsRegistry] = None,
    **log_options,
) -> GraphStoreBackend:
    """Build one backend for a single (non-sharded) store."""
    if kind == "memory":
        return MemoryBackend()
    if kind == "log":
        if store_dir is None:
            raise StoreBackendError("the log backend requires --store-dir")
        return LogBackend(
            store_dir, create=create, registry=registry, **log_options
        )
    raise StoreBackendError(f"unknown store backend {kind!r}; choose from {BACKENDS}")


def shard_backends(
    kind: str,
    num_shards: int,
    store_dir: Optional[str] = None,
    create: bool = True,
    registry: Optional[MetricsRegistry] = None,
    **log_options,
) -> List[GraphStoreBackend]:
    """Per-shard backends for a :class:`ShardedGraphStore` (``shard-NN/`` dirs).

    All or nothing: a fresh fleet checks every shard directory before it
    creates any segment, and a shard that fails to open closes the ones
    opened before it, so the error names the shard at fault and leaves
    no open handle behind.
    """
    if kind == "memory":
        return [MemoryBackend() for _ in range(num_shards)]
    if kind != "log":
        raise StoreBackendError(
            f"unknown store backend {kind!r}; choose from {BACKENDS}"
        )
    if store_dir is None:
        raise StoreBackendError("the log backend requires --store-dir")
    directories = [shard_dir(store_dir, index) for index in range(num_shards)]
    if create:
        for directory in directories:
            _refuse_fresh_over(directory)
    backends: List[GraphStoreBackend] = []
    try:
        for directory in directories:
            backends.append(
                LogBackend(directory, create=create, registry=registry, **log_options)
            )
    except BaseException:
        for backend in backends:
            backend.close()
        raise
    return backends
