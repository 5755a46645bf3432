"""Point-to-point message records.

A :class:`Message` is the unit the paper's complexity measure counts: one
point-to-point message, regardless of payload size (the paper explicitly
defers bit complexity to future work). A :class:`FanOut` is one record
standing for several of them — a ``send_many`` of one payload to many
destinations — and counts as that many messages everywhere.
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass, field
from itertools import count, islice
from struct import error as StructError
from struct import pack as _struct_pack
from typing import Any, Iterable, List, Optional, Sequence

_UID_COUNTER = count()
# Consumes an iterator in C (the itertools "consume" recipe).
_skip = deque(maxlen=0).extend

#: ``send_many`` to fewer destinations than this queues one
#: :class:`Message` each, and a delay plan stamps an outbox shorter than
#: this message by message: a shared record, or a hashed shared prefix,
#: costs more than it saves on one or two messages (every EARS step sends
#: that few).
_SHORT_OUTBOX = 3


#: Unsigned ``array`` typecodes, narrowest first, with the bits each holds.
_UNSIGNED = tuple((code, 8 * array(code).itemsize) for code in "BHIL")


def typecode(limit: int) -> str:
    """The narrowest unsigned :class:`array.array` typecode that holds
    every integer in ``[0, limit]``; ``"Q"`` (64 bits) past the others,
    even past 64 bits, where :func:`pack` then keeps its input."""
    bits = limit.bit_length()
    for code, width in _UNSIGNED:
        if bits <= width:
            return code
    return "Q"


def pack(code: str, values: Sequence[int]) -> Sequence[int]:
    """``values`` packed in an ``array`` of ``code``, or ``values`` itself
    when one of them does not fit: a pid outside ``[0, n)``, which
    ``Context.send_many`` then rejects as ``send`` does, or a delay below
    1 or past its plan's bound, which ``Network.enqueue`` rejects or
    accepts as it would any other.

    The bytes are filled by ``bytes`` or :mod:`struct`, three times
    faster in C than ``array`` fills itself from a sequence.
    """
    try:
        if code == "B":
            return array(code, bytes(values))
        return array(code, _struct_pack(f"{len(values)}{code}", *values))
    except (TypeError, ValueError, StructError):
        return values


def pack_pids(n: int, pids: Iterable[int]) -> array:
    """``pids`` packed as ``Context.send_many`` packs a fan-out's
    destinations among ``n`` processes: a sender that keeps its
    destinations so has them queued without a copy."""
    return array(typecode(n - 1), pids)


@dataclass(slots=True)
class Message:
    """A single point-to-point message.

    Attributes:
        src: sender pid.
        dst: receiver pid.
        payload: algorithm-defined payload (opaque to the substrate).
        kind: short algorithm-defined tag used for per-kind accounting
            (e.g. ``"gossip"``, ``"first-level"``, ``"shutdown"``).
        sent_at: global time step at which the message was sent.
        delay: adversary-assigned delay; the message becomes deliverable at
            ``sent_at + delay``. The realized ``d`` of an execution is the
            maximum delay over delivered messages.
        uid: monotonically increasing id used for stable ordering.
    """

    src: int
    dst: int
    payload: Any
    kind: str = "msg"
    sent_at: int = -1
    delay: int = 1
    uid: int = field(default_factory=_UID_COUNTER.__next__)


class FanOut:
    """One payload sent to ``len(dsts)`` destinations in one call: the
    record ``Context.send_many`` queues for :data:`_SHORT_OUTBOX` or more
    destinations.

    It stands for ``len(dsts)`` point-to-point messages — the ``i``-th to
    ``dsts[i]`` with uid ``uid + i`` and delay ``delays[i]`` — and reserves
    exactly the uids that many ``Message(...)`` calls would have taken, so
    :func:`expand` turns it into the very messages a per-destination send
    would have built. The delay layer, the accounting and the network each
    handle the record once; the network puts the same object in every
    live destination's mailbox, so a receiver reads ``src``, ``kind``,
    ``payload`` and ``sent_at`` off a record it shares with the other
    receivers of the fan-out.

    Both sequences are packed: ``send_many`` queues ``dsts`` as an
    ``array`` of ``typecode(n - 1)`` (1 byte a destination up to n = 256,
    2 up to n = 65,536), and the delay layer stamps ``delays`` as an
    ``array`` of ``typecode(d)`` for its bound d (1 byte a destination up
    to d = 255; see :func:`pack` for a delay that does not fit).
    Everything reads them as the sequences of ints they are.
    """

    __slots__ = ("src", "dsts", "payload", "kind", "sent_at", "delays",
                 "uid")

    def __init__(self, src: int, dsts: Sequence[int], payload: Any,
                 kind: str = "msg") -> None:
        self.src = src
        self.dsts = dsts
        self.payload = payload
        self.kind = kind
        self.sent_at = -1
        #: One delay per destination, stamped by the delay layer.
        self.delays: Optional[Sequence[int]] = None
        self.uid = _UID_COUNTER.__next__()
        _skip(islice(_UID_COUNTER, len(dsts) - 1))

    def message(self, index: int) -> Message:
        """The message to ``dsts[index]`` this record stands for."""
        delays = self.delays
        return Message(self.src, self.dsts[index], self.payload, self.kind,
                       self.sent_at, 1 if delays is None else delays[index],
                       self.uid + index)


def expand(outbox: Sequence) -> Sequence[Message]:
    """``outbox`` with every :class:`FanOut` replaced by its messages, in
    destination order: the per-message outbox a ``send`` per destination
    would have queued (same uids, same order). An outbox without a record
    comes back as it is."""
    if FanOut not in map(type, outbox):
        return outbox
    out: List[Message] = []
    for msg in outbox:
        if type(msg) is FanOut:
            out += map(msg.message, range(len(msg.dsts)))
        else:
            out.append(msg)
    return out
