"""Runtime message model.

The paper uniquely identifies each message by the tuple
``<IPAddress, ProcessId, PerProcessSequenceNumber>`` (Section IV-A).
:class:`MessageUid` reproduces that scheme; :class:`UidFactory` hands out
per-process sequence numbers deterministically so simulations are
repeatable.

Both :class:`MessageUid` and :class:`Message` sit on the DCA hot path —
every observed message allocates one of each, and every uid is hashed
many times (the graph-store index, taint sets).  A uid is therefore a
``tuple`` subclass: hashing, equality and the ``(address, process_id,
seq)`` total order all run in C, so ``sorted(uids)`` needs no key and no
dict probe enters the interpreter.  :class:`Message` is a hand-rolled
``__slots__`` class rather than a dataclass for the same reason.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from operator import itemgetter
from typing import FrozenSet, Mapping, Optional

from repro.errors import IRError

_crc32 = zlib.crc32
_tuple_new = tuple.__new__


class MessageUid(tuple):
    """Globally unique message identifier.

    Mirrors the paper's ``〈IPAddress, ProcessId, PerProcessSequenceNumber〉``
    triple.  ``address`` is a simulated host address, ``process_id`` the
    simulated process, and ``seq`` a per-process counter.

    Instances are immutable 4-tuples ``(address, process_id, seq, crc)``.
    The private fourth item is the stable hash
    ``crc32(f"{address}/{process_id}/{seq}")`` that
    :func:`~repro.graphstore.sharded.shard_of` routes roots by,
    computed once at construction; being a function of the triple it
    changes neither equality nor the ``(address, process_id, seq)`` order.
    """

    __slots__ = ()

    def __new__(cls, address: str, process_id: int, seq: int) -> "MessageUid":
        crc = _crc32(f"{address}/{process_id}/{seq}".encode("utf-8"))
        return _tuple_new(cls, (address, process_id, seq, crc))

    address = property(itemgetter(0))
    process_id = property(itemgetter(1))
    seq = property(itemgetter(2))

    def __reduce__(self):
        # Rebuild through the three-argument constructor (the default
        # tuple pickling would hand __new__ the raw 4-tuple), so a uid
        # survives a trip across a process boundary.
        return (MessageUid, (self[0], self[1], self[2]))

    def __repr__(self) -> str:
        return f"MessageUid(address={self[0]!r}, process_id={self[1]!r}, seq={self[2]!r})"

    def __str__(self) -> str:
        return f"{self[0]}/{self[1]}#{self[2]}"


@lru_cache(maxsize=4096)
def uid_crc_prefix(address: str, process_id: int) -> int:
    """Running crc32 of ``f"{address}/{process_id}/"``.

    crc32 is a running checksum, so every uid of one process finishes its
    :class:`MessageUid` hash from this prefix over just the sequence
    digits: ``crc32(b"%d" % seq, prefix)``.  Cached: a journal names few
    processes, and the log decoder asks once per uid it reads.
    """
    return _crc32(f"{address}/{process_id}/".encode("utf-8"))


class UidFactory:
    """Deterministic producer of per-process message uids.

    ``position`` is the last sequence number handed out (0 before the
    first).  It is the process's whole uid state, so a caller that knows
    how many uids a stretch of execution would have drawn can skip the
    stretch with :meth:`advance` and the next uid is the same one.
    """

    __slots__ = ("address", "process_id", "position", "_crc_prefix")

    def __init__(self, address: str, process_id: int) -> None:
        if not address:
            raise IRError("UidFactory requires a non-empty address")
        self.address = address
        self.process_id = int(process_id)
        self.position = 0
        self._crc_prefix = uid_crc_prefix(address, self.process_id)

    def advance(self, n: int) -> None:
        """Skip ``n`` sequence numbers, as ``n`` ``next_uid`` calls would."""
        self.position += n

    def next_uid(self) -> MessageUid:
        self.position = seq = self.position + 1
        return _tuple_new(
            MessageUid,
            (self.address, self.process_id, seq, _crc32(b"%d" % seq, self._crc_prefix)),
        )


_EMPTY_FIELDS: Mapping[str, object] = {}
_EMPTY_CAUSES: FrozenSet[MessageUid] = frozenset()


class Message:
    """A message instance flowing between components.

    Attributes
    ----------
    uid:
        Unique identifier (see :class:`MessageUid`).
    msg_type:
        The message type; selects the destination handler.
    src / dest:
        Component names; ``src`` is :data:`~repro.lang.ir.EXTERNAL` for
        customer requests and ``dest`` is :data:`~repro.lang.ir.CLIENT`
        for responses.
    fields:
        Payload values by field name.
    cause_uids:
        Uids of the messages that *directly caused* this one (dynamic
        control/data flow, Section III).  Empty for external requests and
        for messages emitted by uninstrumented components.
    root_uid:
        Uid of the external request at the head of this message's causal
        path, when known (propagated by the runtime for bookkeeping; DCA
        itself reconstructs paths from ``cause_uids`` via the graph store).
    sampled:
        Whether this message belongs to a causal path selected for DCA
        tracking (the sampling decision is made once, at the front end,
        and inherited by all downstream messages — Section IV-D).
    """

    __slots__ = ("uid", "msg_type", "src", "dest", "fields", "cause_uids", "root_uid", "sampled")

    def __init__(
        self,
        uid: MessageUid,
        msg_type: str,
        src: str,
        dest: str,
        fields: Optional[Mapping[str, object]] = None,
        cause_uids: FrozenSet[MessageUid] = _EMPTY_CAUSES,
        root_uid: Optional[MessageUid] = None,
        sampled: bool = True,
    ) -> None:
        self.uid = uid
        self.msg_type = msg_type
        self.src = src
        self.dest = dest
        self.fields = _EMPTY_FIELDS if fields is None else fields
        self.cause_uids = cause_uids
        self.root_uid = root_uid
        self.sampled = sampled

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, Message):
            return NotImplemented
        return (
            self.uid == other.uid
            and self.msg_type == other.msg_type
            and self.src == other.src
            and self.dest == other.dest
            and dict(self.fields) == dict(other.fields)
            and self.cause_uids == other.cause_uids
            and self.root_uid == other.root_uid
            and self.sampled == other.sampled
        )

    def with_causes(self, causes: FrozenSet[MessageUid]) -> "Message":
        """Copy of this message with ``cause_uids`` replaced."""
        return Message(
            uid=self.uid,
            msg_type=self.msg_type,
            src=self.src,
            dest=self.dest,
            fields=dict(self.fields),
            cause_uids=causes,
            root_uid=self.root_uid,
            sampled=self.sampled,
        )

    def __repr__(self) -> str:
        return (
            f"Message(uid={self.uid!r}, msg_type={self.msg_type!r}, src={self.src!r}, "
            f"dest={self.dest!r}, fields={self.fields!r}, cause_uids={self.cause_uids!r}, "
            f"root_uid={self.root_uid!r}, sampled={self.sampled!r})"
        )

    def __str__(self) -> str:
        return f"{self.msg_type}[{self.uid}] {self.src}->{self.dest}"
