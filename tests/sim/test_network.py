"""Tests for the message substrate: delivery rule, delay bookkeeping."""

import pytest

from repro.sim.errors import InvalidDelayError
from repro.sim.message import Message
from repro.sim.network import Network

#: Every pid of the 4-process networks below is alive.
EVERYONE = range(4)


def msg(src, dst, sent_at, delay, payload=None):
    m = Message(src=src, dst=dst, payload=payload)
    m.sent_at = sent_at
    m.delay = delay
    return m


class TestDeliveryRule:
    def test_message_not_deliverable_before_delay(self):
        net = Network(4)
        net.enqueue([msg(0, 1, sent_at=0, delay=3)], EVERYONE)
        assert net.collect(1, 1) == []
        assert net.collect(1, 2) == []

    def test_message_deliverable_at_exact_time(self):
        net = Network(4)
        m = msg(0, 1, sent_at=0, delay=3)
        net.enqueue([m], EVERYONE)
        assert net.collect(1, 3) == [m]

    def test_late_collection_still_delivers(self):
        net = Network(4)
        m = msg(0, 1, sent_at=0, delay=1)
        net.enqueue([m], EVERYONE)
        assert net.collect(1, 100) == [m]

    def test_all_due_messages_delivered_together(self):
        net = Network(4)
        first = msg(0, 1, sent_at=0, delay=1)
        second = msg(2, 1, sent_at=1, delay=1)
        late = msg(3, 1, sent_at=0, delay=9)
        for m in (first, second, late):
            net.enqueue([m], EVERYONE)
        inbox = net.collect(1, 2)
        assert set(id(m) for m in inbox) == {id(first), id(second)}
        assert net.collect(1, 9) == [late]

    def test_delivery_order_is_deterministic(self):
        net = Network(4)
        batch = [msg(0, 1, sent_at=0, delay=1) for _ in range(5)]
        for m in batch:
            net.enqueue([m], EVERYONE)
        inbox = net.collect(1, 1)
        assert [m.uid for m in inbox] == sorted(m.uid for m in batch)

    def test_wrong_receiver_gets_nothing(self):
        net = Network(4)
        net.enqueue([msg(0, 1, sent_at=0, delay=1)], EVERYONE)
        assert net.collect(2, 10) == []


class TestAccounting:
    def test_in_flight_counts(self):
        net = Network(4)
        net.enqueue([msg(0, 1, 0, 1)], EVERYONE)
        net.enqueue([msg(0, 2, 0, 5)], EVERYONE)
        assert net.in_flight == 2
        net.collect(1, 1)
        assert net.in_flight == 1

    def test_max_delivered_delay_tracks_only_delivered(self):
        net = Network(4)
        net.enqueue([msg(0, 1, 0, 2)], EVERYONE)
        net.enqueue([msg(0, 2, 0, 7)], EVERYONE)
        net.collect(1, 5)
        assert net.max_delivered_delay == 2
        net.collect(2, 7)
        assert net.max_delivered_delay == 7

    def test_drop_all_for_crashed_receiver(self):
        net = Network(4)
        net.enqueue([msg(0, 1, 0, 1)], EVERYONE)
        net.enqueue([msg(0, 1, 0, 2)], EVERYONE)
        net.enqueue([msg(0, 2, 0, 1)], EVERYONE)
        assert net.drop_all_for(1) == 2
        assert net.in_flight == 1
        assert net.collect(1, 10) == []

    def test_rejects_non_positive_delay(self):
        net = Network(4)
        with pytest.raises(InvalidDelayError):
            net.enqueue([msg(0, 1, 0, 0)], EVERYONE)
