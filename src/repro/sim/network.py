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

import heapq
from typing import Container, Dict, List, Optional, Sequence

from .errors import InvalidDelayError
from .message import Message, is_byzantine_kind


class Network:
    """Per-receiver priority queues of in-flight messages."""

    def __init__(self, n: int) -> None:
        self._n = n
        # Heap entries are (deliverable_at, uid, message) so ties break on
        # send order, keeping executions deterministic.
        self._pending: Dict[int, List] = {pid: [] for pid in range(n)}
        self._in_flight = 0
        self.total_enqueued = 0
        #: Messages that entered the queues carrying a ``byz:*`` provenance
        #: tag — corrupt traffic riding the normal delivery path.
        self.byz_enqueued = 0
        self.max_delivered_delay = 0

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
        :class:`InvalidDelayError` on the spot.
        """
        pending = self._pending
        push = heapq.heappush
        dropped = 0
        byz = 0
        kind = None
        tagged = False
        for msg in outbox:
            delay = msg.delay
            if delay < 1:
                raise InvalidDelayError(
                    f"message delay must be >= 1, got {delay}"
                )
            dst = msg.dst
            if dst not in alive:
                dropped += 1
                continue
            push(pending[dst], (msg.sent_at + delay, msg.uid, msg))
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
        """Deliver every message to ``pid`` that is deliverable at ``now``.

        The model requires that a process scheduled at ``t' >= sent_at + d``
        has received the message; delivering *everything* deliverable at each
        scheduled step satisfies that bound for every message's assigned
        delay. (An adversary wanting later delivery simply assigns a larger
        delay at send time, which is what determines the execution's ``d``.)
        ``max_delivered_delay`` is folded over everything handed out.
        """
        heap = self._pending[pid]
        inbox: List[Message] = []
        if not heap or heap[0][0] > now:
            return inbox
        pop = heapq.heappop
        deliver = inbox.append
        longest = self.max_delivered_delay
        while heap and heap[0][0] <= now:
            msg = pop(heap)[2]
            deliver(msg)
            if msg.delay > longest:
                longest = msg.delay
        self.max_delivered_delay = longest
        self._in_flight -= len(inbox)
        return inbox

    def remove(self, dst: int, uid: int) -> bool:
        """Take the queued message ``uid`` out of ``dst``'s queue (a lossy
        link, used by fault injection); returns whether it was there."""
        heap = self._pending.get(dst, ())
        for index, entry in enumerate(heap):
            if entry[1] == uid:
                del heap[index]
                heapq.heapify(heap)
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
        self._in_flight -= dropped
        return dropped

    def clone(self) -> "Network":
        """O(in-flight) copy for simulation forking.

        Heaps are list copies (heap order is preserved by ``list()``), and
        the :class:`Message` objects themselves are **shared** between the
        original and the clone: a message is frozen once enqueued — the
        engine assigns ``sent_at``/``delay`` before :meth:`enqueue` and no
        one mutates it afterwards — so sharing is safe and keeps the fork
        cost proportional to queue length, not payload size.
        """
        dup = Network.__new__(Network)
        dup._n = self._n
        dup._pending = {pid: list(heap) for pid, heap in self._pending.items()}
        dup._in_flight = self._in_flight
        dup.total_enqueued = self.total_enqueued
        dup.byz_enqueued = self.byz_enqueued
        dup.max_delivered_delay = self.max_delivered_delay
        return dup

    def pending_for(self, pid: int) -> int:
        """Number of messages currently queued for ``pid``."""
        return len(self._pending[pid])

    def earliest_deliverable(self, pid: int) -> Optional[int]:
        """Earliest ``deliverable_at`` among messages queued for ``pid``.

        Returns ``None`` when the queue is empty.
        """
        heap = self._pending[pid]
        if not heap:
            return None
        return heap[0][0]

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
        earliest: Optional[int] = None
        for heap in self._pending.values():
            if heap and (earliest is None or heap[0][0] < earliest):
                earliest = heap[0][0]
        return earliest
