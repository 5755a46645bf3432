"""The message substrate: reliable, unordered, adversarially delayed links.

Messages are never lost or corrupted (the paper's model), but the adversary
assigns each message a positive integer delay. A message sent at time ``t``
with delay ``λ`` becomes *deliverable* at ``t + λ`` and is received at the
receiver's first scheduled local step at or after that time. The realized
per-execution ``d`` is then ``max λ`` over delivered messages, matching the
paper's definition of ``d`` as a property of the execution rather than a
known bound.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import chain
from operator import attrgetter
from typing import Container, Dict, Iterator, List, Optional, Sequence

from .errors import InvalidDelayError
from .message import FanOut, Message

_uid = attrgetter("uid")
_sent_at = attrgetter("sent_at")


def _messages_in(pid: int, at: int, slot: List) -> List:
    """``pid``'s slot ``at`` with each fan-out copy in it replaced by the
    :class:`Message` it stands for; ``slot`` itself when it holds none.

    A record's copies in one slot are its indices ``i`` with ``dsts[i] ==
    pid`` and ``sent_at + delays[i] == at``, appended in index order, so
    the ``j``-th copy is the ``j``-th such index.
    """
    if FanOut not in map(type, slot):
        return slot
    out = []
    indices: Dict[int, Iterator[int]] = {}
    for msg in slot:
        if type(msg) is FanOut:
            copies = indices.get(id(msg))
            if copies is None:
                copies = indices[id(msg)] = iter([
                    i for i, (dst, delay)
                    in enumerate(zip(msg.dsts, msg.delays))
                    if dst == pid and msg.sent_at + delay == at
                ])
            msg = msg.message(next(copies))
        out.append(msg)
    return out


class Network:
    """Per-receiver mailboxes of in-flight messages, bucketed by delivery
    time.

    A mailbox is ``{deliverable_at: [messages, in arrival order]}`` plus a
    heap of that receiver's distinct pending *times* — one heap entry per
    slot, not per message, so between ``send_many`` and ``on_step`` a
    message costs at most its :class:`Message`. A :class:`FanOut` record
    costs nothing per destination but a slot entry: the same object sits
    in every live destination's slot, and each entry counts as one
    message in every counter and query.
    """

    def __init__(self, n: int) -> None:
        self._n = n
        self._slots: Dict[int, Dict[int, List[Message]]] = {
            pid: {} for pid in range(n)
        }
        # The keys of ``_slots[pid]`` as a heap: "nothing due" and the
        # earliest pending time are both ``times[0]``.
        self._times: Dict[int, List[int]] = {pid: [] for pid in range(n)}
        self._in_flight = 0
        self.total_enqueued = 0
        self.max_delivered_delay = 0
        # Largest delay ever offered to ``enqueue`` (1 is the least there
        # is): a ceiling on ``max_delivered_delay``, which ``collect`` stops
        # re-scanning for once it is reached.
        self._delay_ceiling = 1
        # Largest uid ever queued. A message at or below it arrived out of
        # uid order (a replay, a forgery, a hand-built outbox) and gets its
        # ``(dst, deliverable_at)`` slot marked for a uid sort at delivery;
        # every other slot is in ``(deliverable_at, uid)`` order as it
        # stands. A mark goes when its slot does.
        self._newest_uid = -1
        self._unordered = set()

    @property
    def in_flight(self) -> int:
        """Number of messages sent but not yet received (or dropped)."""
        return self._in_flight

    def enqueue(self, outbox: Sequence[Message], alive: Container[int]) -> int:
        """Accept one process-step's outbox, delays already assigned.

        Messages addressed to a pid outside ``alive`` can never be
        received and are not queued; their number is returned (they count
        toward message complexity, so the caller books them as dropped).
        A delay below 1 anywhere in the outbox raises
        :class:`InvalidDelayError` before anything is queued.
        """
        ceiling = self._delay_ceiling
        sent = len(outbox)
        for msg in outbox:
            if type(msg) is FanOut:
                sent += len(msg.dsts) - 1
                # Its least delay if that one is bad, else its largest.
                delay = min(msg.delays)
                if delay >= 1:
                    delay = max(msg.delays)
            else:
                delay = msg.delay
            if delay > ceiling:
                ceiling = delay
            elif delay < 1:
                raise InvalidDelayError(
                    f"message delay must be >= 1, got {delay}"
                )
        self._delay_ceiling = ceiling
        mailboxes = self._slots
        newest = self._newest_uid
        dropped = 0
        for msg in outbox:
            if type(msg) is FanOut:
                dropped += len(msg.dsts) - self._enqueue_fanout(
                    msg, alive, newest
                )
                newest = max(newest, msg.uid + len(msg.dsts) - 1)
                continue
            dst = msg.dst
            if dst not in alive:
                dropped += 1
                continue
            at = msg.sent_at + msg.delay
            slots = mailboxes[dst]
            slot = slots.get(at)
            if slot is None:
                slots[at] = [msg]
                heappush(self._times[dst], at)
            else:
                slot.append(msg)
            uid = msg.uid
            if uid > newest:
                newest = uid
            else:
                self._unordered.add((dst, at))
        self._newest_uid = newest
        queued = sent - dropped
        self._in_flight += queued
        self.total_enqueued += queued
        return dropped

    def _enqueue_fanout(self, record: FanOut, alive: Container[int],
                        newest: int) -> int:
        """Put ``record`` itself in the slot of each live destination;
        returns how many copies were queued. Its uids run from
        ``record.uid`` up, so its slots are marked for a uid sort only
        when that first uid is not above ``newest``."""
        mailboxes = self._slots
        times = self._times
        sent_at = record.sent_at
        in_order = record.uid > newest
        queued = 0
        for dst, delay in zip(record.dsts, record.delays):
            if dst not in alive:
                continue
            queued += 1
            at = sent_at + delay
            slots = mailboxes[dst]
            slot = slots.get(at)
            if slot is None:
                slots[at] = [record]
                heappush(times[dst], at)
            else:
                slot.append(record)
            if not in_order:
                self._unordered.add((dst, at))
        return queued

    def collect(self, pid: int, now: int) -> List[Message]:
        """Deliver every message to ``pid`` that is deliverable at ``now``,
        in ``(deliverable_at, uid)`` order.

        The model requires that a process scheduled at ``t' >= sent_at + d``
        has received the message; delivering *everything* deliverable at each
        scheduled step satisfies that bound for every message's assigned
        delay. (An adversary wanting later delivery simply assigns a larger
        delay at send time, which is what determines the execution's ``d``.)
        ``max_delivered_delay`` is folded over everything handed out: an
        entry's delay is its slot's time minus its ``sent_at``.

        Due slots are popped off the heap of times and concatenated —
        O(due slots · log pending times), and O(1) when nothing is due.
        Only a slot ``enqueue`` marked as out of uid order is sorted (its
        fan-out records first replaced by their messages to ``pid``).
        """
        times = self._times[pid]
        if not times or times[0] > now:
            return []
        slots = self._slots[pid]
        unordered = self._unordered
        inbox: Optional[List[Message]] = None
        while True:
            at = heappop(times)
            slot = slots.pop(at)
            if unordered and (pid, at) in unordered:
                unordered.discard((pid, at))
                slot = _messages_in(pid, at, slot)
                slot.sort(key=_uid)
            if self.max_delivered_delay < self._delay_ceiling:
                self.max_delivered_delay = max(
                    self.max_delivered_delay, at - min(map(_sent_at, slot))
                )
            if inbox is None:
                inbox = slot
            else:
                inbox += slot
            if not times or times[0] > now:
                break
        self._in_flight -= len(inbox)
        return inbox

    def drop_all_for(self, pid: int) -> int:
        """Discard pending messages to a crashed process; returns the count.

        A crashed process never takes another step, so its queued messages
        can never be received. Dropping them keeps the ``in_flight`` counter
        meaningful for quiescence detection.
        """
        dropped = self.pending_for(pid)
        if self._unordered:
            self._unordered.difference_update(
                [(pid, at) for at in self._slots[pid]]
            )
        self._slots[pid] = {}
        self._times[pid] = []
        self._in_flight -= dropped
        return dropped

    def clone(self) -> "Network":
        """O(in-flight) copy for simulation forking.

        Slots and heaps are copied, and the :class:`Message` and
        :class:`FanOut` objects themselves are **shared** between the
        original and the clone: an entry is frozen once enqueued — the
        adversary assigns ``sent_at`` and the delays before
        :meth:`enqueue` and no one mutates it afterwards — so sharing is
        safe and keeps the fork cost proportional to queue length, not
        payload size.
        """
        dup = Network.__new__(Network)
        dup._n = self._n
        dup._slots = {
            pid: {at: list(slot) for at, slot in slots.items()}
            for pid, slots in self._slots.items()
        }
        dup._times = {pid: list(times) for pid, times in self._times.items()}
        dup._in_flight = self._in_flight
        dup.total_enqueued = self.total_enqueued
        dup.max_delivered_delay = self.max_delivered_delay
        dup._delay_ceiling = self._delay_ceiling
        dup._newest_uid = self._newest_uid
        dup._unordered = set(self._unordered)
        return dup

    def queued_for(self, pid: int) -> Iterator[Message]:
        """The messages currently queued for ``pid``, in no particular
        order; a fan-out record's copy is the message to ``pid`` it
        stands for (own uid, ``delay`` = slot time − ``sent_at``)."""
        return chain.from_iterable(
            _messages_in(pid, at, slot)
            for at, slot in self._slots[pid].items()
        )

    def pending_for(self, pid: int) -> int:
        """Number of messages currently queued for ``pid``."""
        return sum(map(len, self._slots[pid].values()))
