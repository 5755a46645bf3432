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

from typing import Container, Dict, Iterator, List, Optional, Sequence

from .errors import InvalidDelayError
from .message import Message, is_byzantine_kind


class Network:
    """Per-receiver queues of in-flight messages."""

    def __init__(self, n: int) -> None:
        self._n = n
        # Queue entries are (deliverable_at, uid, message): sorting them
        # breaks ties on send order, keeping executions deterministic, and
        # never compares two messages (uids are unique). ``enqueue``
        # appends; a queue is only put in order when it is polled.
        self._pending: Dict[int, List] = {pid: [] for pid in range(n)}
        # Per queue, its length when ``collect`` last left it — in order.
        # A longer queue has an unsorted tail appended since.
        self._sorted = [0] * n
        self._in_flight = 0
        self.total_enqueued = 0
        #: Messages that entered the queues carrying a ``byz:*`` provenance
        #: tag — corrupt traffic riding the normal delivery path.
        self.byz_enqueued = 0
        self.max_delivered_delay = 0
        # Largest delay ever offered to ``enqueue`` (1 is the least there
        # is): a ceiling on ``max_delivered_delay``, which ``collect`` stops
        # re-scanning for once it is reached.
        self._delay_ceiling = 1

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
        for msg in outbox:
            delay = msg.delay
            if delay > ceiling:
                ceiling = delay
            elif delay < 1:
                raise InvalidDelayError(
                    f"message delay must be >= 1, got {delay}"
                )
        self._delay_ceiling = ceiling
        pending = self._pending
        dropped = 0
        byz = 0
        kind = None
        tagged = False
        for msg in outbox:
            dst = msg.dst
            if dst not in alive:
                dropped += 1
                continue
            pending[dst].append((msg.sent_at + msg.delay, msg.uid, msg))
            if msg.kind is not kind:
                kind = msg.kind
                tagged = is_byzantine_kind(kind)
            if tagged:
                byz += 1
        queued = len(outbox) - dropped
        self._in_flight += queued
        self.total_enqueued += queued
        self.byz_enqueued += byz
        return dropped

    def collect(self, pid: int, now: int) -> List[Message]:
        """Deliver every message to ``pid`` that is deliverable at ``now``,
        in ``(deliverable_at, uid)`` order.

        The model requires that a process scheduled at ``t' >= sent_at + d``
        has received the message; delivering *everything* deliverable at each
        scheduled step satisfies that bound for every message's assigned
        delay. (An adversary wanting later delivery simply assigns a larger
        delay at send time, which is what determines the execution's ``d``.)
        ``max_delivered_delay`` is folded over everything handed out.
        """
        queue = self._pending[pid]
        if not queue:
            return []
        if len(queue) != self._sorted[pid]:
            # Sorted prefix plus appended tail: near-linear for timsort.
            queue.sort()
        inbox: List[Message] = []
        for entry in queue:
            if entry[0] > now:
                break
            inbox.append(entry[2])
        due = len(inbox)
        self._sorted[pid] = len(queue) - due
        if not due:
            return inbox
        del queue[:due]
        if self.max_delivered_delay < self._delay_ceiling:
            self.max_delivered_delay = max(
                self.max_delivered_delay, max(msg.delay for msg in inbox)
            )
        self._in_flight -= due
        return inbox

    def remove(self, dst: int, uid: int) -> bool:
        """Take the queued message ``uid`` out of ``dst``'s queue (a lossy
        link, used by fault injection); returns whether it was there."""
        queue = self._pending.get(dst, ())
        for index, entry in enumerate(queue):
            if entry[1] == uid:
                del queue[index]
                if index < self._sorted[dst]:
                    self._sorted[dst] -= 1
                self._in_flight -= 1
                return True
        return False

    def drop_all_for(self, pid: int) -> int:
        """Discard pending messages to a crashed process; returns the count.

        A crashed process never takes another step, so its queued messages
        can never be received. Dropping them keeps the ``in_flight`` counter
        meaningful for quiescence detection.
        """
        dropped = len(self._pending[pid])
        self._pending[pid] = []
        self._sorted[pid] = 0
        self._in_flight -= dropped
        return dropped

    def clone(self) -> "Network":
        """O(in-flight) copy for simulation forking.

        Queues are list copies, and the :class:`Message` objects themselves
        are **shared** between the original and the clone: a message is
        frozen once enqueued — the adversary assigns ``sent_at``/``delay``
        before :meth:`enqueue` and no one mutates it afterwards — so
        sharing is safe and keeps the fork cost proportional to queue
        length, not payload size.
        """
        dup = Network.__new__(Network)
        dup._n = self._n
        dup._pending = {pid: list(q) for pid, q in self._pending.items()}
        dup._sorted = list(self._sorted)
        dup._in_flight = self._in_flight
        dup.total_enqueued = self.total_enqueued
        dup.byz_enqueued = self.byz_enqueued
        dup.max_delivered_delay = self.max_delivered_delay
        dup._delay_ceiling = self._delay_ceiling
        return dup

    def queued_for(self, pid: int) -> Iterator[Message]:
        """The messages currently queued for ``pid``, in no particular
        order."""
        return (entry[2] for entry in self._pending[pid])

    def pending_for(self, pid: int) -> int:
        """Number of messages currently queued for ``pid``."""
        return len(self._pending[pid])

    def earliest_deliverable(self, pid: int) -> Optional[int]:
        """Earliest ``deliverable_at`` among messages queued for ``pid``.

        Returns ``None`` when the queue is empty.
        """
        queue = self._pending[pid]
        if not queue:
            return None
        return min(queue)[0]

    def earliest_deliverable_any(self) -> Optional[int]:
        """Earliest ``deliverable_at`` across *all* receivers, or ``None``
        when nothing is in flight.

        This is the network's contribution to the time-leap protocol: no
        delivery can happen before this time. (In the paper's model
        deliveries only occur at a receiver's scheduled steps, so the
        engine's leap decisions are driven by the schedule — this query
        exists for observers, diagnostics and future delivery-driven
        plans.)
        """
        return min(
            (min(queue)[0] for queue in self._pending.values() if queue),
            default=None,
        )
