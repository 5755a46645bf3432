"""Time-slot mailboxes against the per-message heaps they replaced.

``HeapNetwork`` is the per-receiver-heap ``Network`` as it stood before the
mailboxes stopped holding an entry per message, kept verbatim as the
oracle. Every operation is applied to both and every observable compared
afterwards: the inbox (same uids, same order), the counters, and the queue
lengths.
"""

import heapq
import random
from typing import Container, Dict, List, Sequence

import pytest

from repro.sim.errors import InvalidDelayError
from repro.sim.message import Message
from repro.sim.network import Network


class HeapNetwork:
    """Per-receiver priority queues of in-flight messages."""

    def __init__(self, n: int) -> None:
        self._n = n
        # Heap entries are (deliverable_at, uid, message) so ties break on
        # send order, keeping executions deterministic.
        self._pending: Dict[int, List] = {pid: [] for pid in range(n)}
        self._in_flight = 0
        self.total_enqueued = 0
        self.max_delivered_delay = 0

    @property
    def in_flight(self) -> int:
        return self._in_flight

    def enqueue(self, outbox: Sequence[Message], alive: Container[int]) -> int:
        pending = self._pending
        push = heapq.heappush
        dropped = 0
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
        queued = len(outbox) - dropped
        self._in_flight += queued
        self.total_enqueued += queued
        return dropped

    def collect(self, pid: int, now: int) -> List[Message]:
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

    def drop_all_for(self, pid: int) -> int:
        dropped = len(self._pending[pid])
        self._pending[pid] = []
        self._in_flight -= dropped
        return dropped

    def clone(self) -> "HeapNetwork":
        dup = HeapNetwork.__new__(HeapNetwork)
        dup._n = self._n
        dup._pending = {pid: list(heap) for pid, heap in self._pending.items()}
        dup._in_flight = self._in_flight
        dup.total_enqueued = self.total_enqueued
        dup.max_delivered_delay = self.max_delivered_delay
        return dup

    def pending_for(self, pid: int) -> int:
        return len(self._pending[pid])


def uids(inbox):
    return [msg.uid for msg in inbox]


def observables(net, n):
    return {
        "in_flight": net.in_flight,
        "total_enqueued": net.total_enqueued,
        "max_delivered_delay": net.max_delivered_delay,
        "pending_for": [net.pending_for(pid) for pid in range(n)],
    }


class Pair:
    """The slot network and the heap oracle, driven in lockstep."""

    def __init__(self, n):
        self.n = n
        self.new = Network(n)
        self.old = HeapNetwork(n)
        self.alive = set(range(n))
        self.uids = []

    def agree(self):
        assert observables(self.new, self.n) == observables(self.old, self.n)
        for pid in range(self.n):
            queued = list(self.new.queued_for(pid))
            assert len(queued) == self.new.pending_for(pid)
            assert all(msg.dst == pid for msg in queued)

    def enqueue(self, now, sends, order=None):
        """``sends``: (dst, delay[, kind]) per message, stamped at ``now``
        and given uids in list order; enqueued as ``order(outbox)``."""
        outbox = [
            Message(src=0, dst=send[0], payload=None,
                    kind=send[2] if len(send) > 2 else "gossip",
                    sent_at=now, delay=send[1])
            for send in sends
        ]
        self.uids += [(msg.dst, msg.uid) for msg in outbox]
        self.send(order(outbox) if order else outbox)
        return outbox

    def send(self, outbox):
        assert (self.new.enqueue(outbox, self.alive)
                == self.old.enqueue(outbox, self.alive))
        self.agree()

    def collect(self, pid, now):
        got = self.new.collect(pid, now)
        assert isinstance(got, list)
        assert uids(got) == uids(self.old.collect(pid, now))
        self.agree()
        return got

    def crash(self, pid):
        self.alive.discard(pid)
        assert self.new.drop_all_for(pid) == self.old.drop_all_for(pid)
        self.agree()

    def fork(self):
        """Continue on clones; hand back the originals and their state."""
        left_behind = (self.new, self.old, observables(self.new, self.n))
        self.new, self.old = self.new.clone(), self.old.clone()
        self.agree()
        return left_behind


@pytest.mark.parametrize("seed", range(25))
def test_random_interleavings_agree_after_every_operation(seed):
    rng = random.Random(seed)
    n = 5
    pair = Pair(n)
    now = 0
    left_behind = []
    for _ in range(250):
        op = rng.random()
        if op < 0.40:
            pair.enqueue(now, [
                (rng.randrange(n), rng.randint(1, 5),
                 rng.choice(("gossip", "ben-or", "shutdown")))
                for _ in range(rng.randrange(7))
            ])
        elif op < 0.75:
            pair.collect(rng.randrange(n), now)
        elif op < 0.86:
            pair.crash(rng.randrange(n))
        elif op < 0.90:
            left_behind.append(pair.fork())
        else:
            now += rng.randint(1, 3)
    # Drain: every survivor's inbox, in order, to the end.
    for pid in range(n):
        pair.collect(pid, now + 10)
    assert pair.new.in_flight == 0
    # Nothing done to a clone reached the network it was cloned from,
    # which still delivers what it held, in order.
    for new, old, seen in left_behind:
        assert observables(new, n) == observables(old, n) == seen
        for pid in range(n):
            assert uids(new.collect(pid, now + 10)) == uids(
                old.collect(pid, now + 10))


def test_polls_of_an_unchanged_queue_and_of_nothing_due():
    pair = Pair(3)
    pair.enqueue(0, [(1, 4), (1, 2), (1, 4), (1, 3)])
    assert pair.collect(1, 1) == []          # sorted now, nothing due
    assert pair.collect(1, 1) == []          # unchanged since that poll
    assert len(pair.collect(1, 3)) == 2      # a partial prefix
    assert pair.collect(1, 3) == []          # unchanged, rest not due
    pair.enqueue(3, [(1, 1), (1, 5), (2, 1)])
    assert len(pair.collect(1, 4)) == 3      # old leftovers + new arrival
    assert len(pair.collect(1, 100)) == 1
    assert pair.collect(1, 100) == []        # empty


def test_a_larger_delay_after_the_ceiling_was_reached():
    pair = Pair(3)
    pair.enqueue(0, [(1, 2), (2, 2)])
    pair.collect(1, 2)
    assert pair.new.max_delivered_delay == 2     # the ceiling so far
    pair.enqueue(2, [(2, 1)])
    pair.collect(2, 3)                           # steady state: no rescan
    pair.enqueue(3, [(1, 5), (2, 1)])            # the ceiling moves up
    pair.collect(2, 4)
    assert pair.new.max_delivered_delay == 2     # ... but 5 is undelivered
    pair.collect(1, 8)
    assert pair.new.max_delivered_delay == 5


def test_the_largest_delay_may_never_be_delivered():
    pair = Pair(3)
    pair.enqueue(0, [(1, 9), (2, 1)])
    pair.crash(1)
    pair.enqueue(0, [(1, 12), (2, 3)])           # to the dead: not queued
    pair.collect(2, 1)
    pair.collect(2, 3)
    assert pair.new.max_delivered_delay == 3


def test_a_clone_that_sorts_leaves_the_original_to_sort_for_itself():
    pair = Pair(2)
    pair.enqueue(0, [(1, 3), (1, 1), (1, 2)])    # never polled: unsorted
    new, old, _ = pair.fork()
    assert pair.collect(1, 0) == []              # the clone sorts its copy
    assert uids(new.collect(1, 10)) == uids(old.collect(1, 10))
    assert len(pair.collect(1, 10)) == 3


def backwards(outbox):
    return outbox[::-1]


def test_an_outbox_enqueued_backwards_is_delivered_in_uid_order():
    pair = Pair(3)
    pair.enqueue(0, [(1, 2), (1, 2), (2, 2), (1, 2), (1, 3), (1, 3)],
                 order=backwards)
    got = pair.collect(1, 3)                     # two slots, both marked
    assert uids(got) == sorted(uids(got)) and len(got) == 5
    assert len(pair.collect(2, 3)) == 1


def test_an_older_message_arriving_later_in_the_same_slot():
    pair = Pair(3)
    early = Message(src=0, dst=1, payload=None, sent_at=0, delay=3)
    pair.enqueue(1, [(1, 2), (2, 2), (1, 2)])    # newer uids, same slot
    pair.send([early])
    pair.enqueue(2, [(1, 1)])                    # newer again, same slot
    got = pair.collect(1, 3)
    assert got[0] is early and len(got) == 4
    # The slot after it starts clean: nothing is sorted that need not be.
    pair.enqueue(3, [(1, 1), (1, 1)])
    assert len(pair.collect(1, 4)) == 2


def test_the_same_old_message_enqueued_again_by_an_injector():
    pair = Pair(3)
    first, _ = pair.enqueue(0, [(1, 3), (1, 3)])
    pair.enqueue(1, [(1, 2), (2, 2)])            # newer uids, same slot
    pair.send([first])                           # FaultInjector._inject
    got = pair.collect(1, 3)
    assert got[:2] == [first, first] and len(got) == 4
    assert pair.new.in_flight == 1


def test_many_distinct_pending_times_and_few_of_them_due():
    rng = random.Random(7)
    pair = Pair(2)
    delivered = 0
    for now in range(400):
        pair.enqueue(now, [(1, rng.randint(1, 2000))
                           for _ in range(rng.randrange(4))])
        delivered += len(pair.collect(1, now))
    assert pair.new.pending_for(1) > 300 > delivered > 0
    delivered += len(pair.collect(1, 2400))
    assert delivered == pair.new.total_enqueued and pair.new.in_flight == 0


def test_a_mark_goes_when_its_slot_does():
    """Crashed receivers and emptied slots leave no mark behind for every
    later fork to copy."""
    pair = Pair(3)
    pair.enqueue(0, [(1, 2), (1, 2), (2, 4), (2, 4), (2, 5)],
                 order=backwards)
    assert pair.new._unordered == {(1, 2), (2, 4)}
    pair.crash(2)
    assert pair.new._unordered == {(1, 2)}
    assert len(pair.collect(1, 2)) == 2          # the slot is emptied
    assert not pair.new._unordered
    pair.enqueue(2, [(1, 2), (1, 2)])            # a new slot, in order
    assert not pair.new._unordered and len(pair.collect(1, 4)) == 2


def test_a_clone_taken_with_an_unordered_slot_in_flight():
    pair = Pair(2)
    pair.enqueue(0, [(1, 2), (1, 2), (1, 2)], order=backwards)
    new, old, seen = pair.fork()
    pair.enqueue(1, [(1, 1)])                    # lands in the clone only
    assert len(pair.collect(1, 2)) == 4          # the clone sorts its slot
    assert observables(new, 2) == observables(old, 2) == seen
    got = new.collect(1, 2)                      # the original, untouched,
    assert uids(got) == uids(old.collect(1, 2))  # still sorts for itself
    assert uids(got) == sorted(uids(got)) and len(got) == 3
