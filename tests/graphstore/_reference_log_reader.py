"""Reference reader for the graph-store journal — the oracle for ``LogBackend``'s.

A plain ``struct`` walk of the on-disk format exactly as the module
docstring of :mod:`repro.graphstore.backend` documents it.  It shares no
code with that module — not its constants, its caches or its uid type —
so the differential suite in ``test_log_reference_reader.py`` compares
two independent readings of the same bytes.  It is strict and never
repairs: any damage, torn tail included, raises :class:`ValueError`.

Format::

    segment-%08d.log = header frame*
    header  = b"RGSL"  u32 version (= 1)  u32 index
    frame   = u32 length  u32 crc32(payload)  payload
    payload = u8 opcode  body
    str     = u16 byte count  UTF-8 bytes
    uid     = <address, process_id, seq>; address a str, the two ints u64

    1 message  u8 flags (1 has-root, 2 sampled)  str uid-address  str type
               str src  str dest  [str root-address]  u32 n  n × str cause-address
               then the uid tails: u64 pid, u64 seq of the uid, [the root], each cause
    2 edge     str address  u64 pid  u64 seq  (cause), the same for the effect
    3 evict    str address  u64 pid  u64 seq
    4 abandon  str address  u64 pid  u64 seq
    5 repair   (empty body)

All integers are little-endian.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from typing import List, NamedTuple, Tuple

OPS = {1: "message", 2: "edge", 3: "evict", 4: "abandon", 5: "repair"}


class Frame(NamedTuple):
    """One frame: where it lies in its segment and what it says.

    ``start`` is the offset of the frame's length field, ``end`` one past
    its payload, ``tail`` the offset of the payload's uid tail (the
    fixed-width ``u64`` pairs after the strings; ``end`` when the op has
    none).  ``args`` by op: a message's ``(uid, type, src, dest, root or
    None, causes in on-disk order, sampled)``, an edge's ``(cause,
    effect)``, an eviction's or abandonment's ``(root,)``, a repair's ``()``.
    """

    segment: int
    start: int
    end: int
    tail: int
    op: str
    args: tuple


class _Cursor:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise ValueError(f"payload ends mid-field at byte {self.pos}")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk

    def uint(self, fmt: str) -> int:
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))[0]

    def text(self) -> str:
        return self.take(self.uint("<H")).decode("utf-8")


def decode(payload: bytes) -> Tuple[str, tuple, int]:
    """``(op, args, tail_offset)`` of one payload (see :class:`Frame`)."""
    cur = _Cursor(payload)
    opcode = cur.uint("<B")
    if opcode not in OPS:
        raise ValueError(f"unknown opcode {opcode}")
    op = OPS[opcode]
    tail = len(payload)
    if op == "message":
        flags = cur.uint("<B")
        if flags & ~3:
            raise ValueError(f"unknown flag bits {flags:#x}")
        uid_address, msg_type, src, dest = cur.text(), cur.text(), cur.text(), cur.text()
        root_address = cur.text() if flags & 1 else None
        cause_addresses = [cur.text() for _ in range(cur.uint("<I"))]
        tail = cur.pos
        uid = (uid_address, cur.uint("<Q"), cur.uint("<Q"))
        root = None
        if root_address is not None:
            root = (root_address, cur.uint("<Q"), cur.uint("<Q"))
        causes = tuple((a, cur.uint("<Q"), cur.uint("<Q")) for a in cause_addresses)
        args: tuple = (uid, msg_type, src, dest, root, causes, bool(flags & 2))
    elif op == "edge":
        cause = (cur.text(), cur.uint("<Q"), cur.uint("<Q"))
        args = (cause, (cur.text(), cur.uint("<Q"), cur.uint("<Q")))
        tail = cur.pos - 16  # the effect's pair: edge uids interleave with addresses
    elif op in ("evict", "abandon"):
        address = cur.text()
        tail = cur.pos
        args = ((address, cur.uint("<Q"), cur.uint("<Q")),)
    else:
        args = ()
    if cur.pos != len(payload):
        raise ValueError(f"{len(payload) - cur.pos} trailing bytes after a {op} record")
    return op, args, tail


def read_segment(path: str, index: int) -> List[Frame]:
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < 12:
        raise ValueError(f"{path}: shorter than its header")
    magic, version, stored = struct.unpack_from("<4sII", data, 0)
    if (magic, version, stored) != (b"RGSL", 1, index):
        raise ValueError(f"{path}: bad header {(magic, version, stored)}")
    frames = []
    pos = 12
    while pos < len(data):
        if pos + 8 > len(data):
            raise ValueError(f"{path}: truncated frame header at byte {pos}")
        length, crc = struct.unpack_from("<II", data, pos)
        payload = data[pos + 8:pos + 8 + length]
        if len(payload) != length:
            raise ValueError(f"{path}: frame at byte {pos} is cut short")
        if zlib.crc32(payload) != crc:
            raise ValueError(f"{path}: crc mismatch at byte {pos}")
        op, args, tail = decode(payload)
        frames.append(Frame(index, pos, pos + 8 + length, pos + 8 + tail, op, args))
        pos += 8 + length
    return frames


def read_log(directory: str) -> List[Frame]:
    """Every frame of the segment sequence in ``directory``, in order."""
    names = sorted(n for n in os.listdir(directory) if re.fullmatch(r"segment-\d{8}\.log", n))
    indices = [int(name[8:16]) for name in names]
    if indices != list(range(len(indices))):
        raise ValueError(f"{directory}: segment sequence {indices} has gaps")
    frames: List[Frame] = []
    for name, index in zip(names, indices):
        frames += read_segment(os.path.join(directory, name), index)
    return frames

