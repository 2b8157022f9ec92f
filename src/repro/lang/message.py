"""Runtime message model.

The paper uniquely identifies each message by the tuple
``<IPAddress, ProcessId, PerProcessSequenceNumber>`` (Section IV-A).
:class:`MessageUid` reproduces that scheme; :class:`UidFactory` hands out
per-process sequence numbers deterministically so simulations are
repeatable.

Both :class:`MessageUid` and :class:`Message` sit on the DCA hot path —
every observed message allocates one of each, and every uid is hashed
many times (graph-store dicts, edge sets, taint sets).  They are
hand-rolled ``__slots__`` classes rather than dataclasses: the uid
computes its hash once at construction, and equality short-circuits on
identity, which the interpreter's taint sets and the store's hash index
hit constantly.

Ordering is the exception: a uid stores no sort key (one more slot per
uid costs ~10 MB of peak RSS on the journaling workloads).  Code that
needs the uid total order — the provenance cap, canonical journal bytes,
deterministic BFS and repair sweeps — sorts with :data:`UID_ORDER_KEY`,
which builds the ``(address, process_id, seq)`` tuples in C for the one
call and lets them go.
"""

from __future__ import annotations

import itertools
import operator
from typing import FrozenSet, Mapping, Optional

from repro.errors import IRError

#: The one total order on uids — ``(address, process_id, seq)`` — as a
#: C-level sort key: ``sorted(uids, key=UID_ORDER_KEY)``.  The key tuple
#: exists only for the duration of the sort; nothing is cached on the
#: uid.  ``MessageUid``'s rich comparisons define the same order.
UID_ORDER_KEY = operator.attrgetter("address", "process_id", "seq")


class MessageUid:
    """Globally unique message identifier.

    Mirrors the paper's ``〈IPAddress, ProcessId, PerProcessSequenceNumber〉``
    triple.  ``address`` is a simulated host address, ``process_id`` the
    simulated process, and ``seq`` a per-process counter.

    Instances are immutable; ``_hash`` is computed once at construction
    (uids are hashed on every graph-store and taint-set operation) and
    ``_crc`` lazily caches the stable partition hash the
    :class:`~repro.graphstore.partition.HashPartitioner` derives from the
    triple.
    """

    __slots__ = ("address", "process_id", "seq", "_hash", "_crc")

    def __init__(self, address: str, process_id: int, seq: int) -> None:
        object.__setattr__(self, "address", address)
        object.__setattr__(self, "process_id", process_id)
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "_hash", hash((address, process_id, seq)))
        object.__setattr__(self, "_crc", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"MessageUid is immutable (cannot set {name!r})")

    def __reduce__(self):
        # The immutable __setattr__ breaks the default slot-state
        # unpickling; rebuild through __init__ instead (the shared-store
        # backend ships uids across a multiprocessing proxy boundary).
        return (MessageUid, (self.address, self.process_id, self.seq))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        if not isinstance(other, MessageUid):
            return NotImplemented
        return (
            self.seq == other.seq
            and self.process_id == other.process_id
            and self.address == other.address
        )

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

    # The rich comparisons stay for API compatibility; sorting code
    # passes ``key=UID_ORDER_KEY`` instead, so no hot path pays a
    # Python-level call per comparison.

    def _key(self):
        return (self.address, self.process_id, self.seq)

    def __lt__(self, other: "MessageUid") -> bool:
        return self._key() < other._key()

    def __le__(self, other: "MessageUid") -> bool:
        return self._key() <= other._key()

    def __gt__(self, other: "MessageUid") -> bool:
        return self._key() > other._key()

    def __ge__(self, other: "MessageUid") -> bool:
        return self._key() >= other._key()

    def __repr__(self) -> str:
        return f"MessageUid(address={self.address!r}, process_id={self.process_id!r}, seq={self.seq!r})"

    def __str__(self) -> str:
        return f"{self.address}/{self.process_id}#{self.seq}"


class UidFactory:
    """Deterministic producer of per-process message uids."""

    __slots__ = ("address", "process_id", "_seq")

    def __init__(self, address: str, process_id: int) -> None:
        if not address:
            raise IRError("UidFactory requires a non-empty address")
        self.address = address
        self.process_id = int(process_id)
        self._seq = itertools.count(1)

    def next_uid(self) -> MessageUid:
        return MessageUid(self.address, self.process_id, next(self._seq))


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

    def __ne__(self, other: object) -> bool:
        result = self.__eq__(other)
        if result is NotImplemented:
            return result
        return not result

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
