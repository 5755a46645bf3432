"""Tests for message records and event traces."""

from repro.sim.message import Message
from repro.sim.trace import EventTrace


class TestMessage:
    def test_uids_strictly_increase(self):
        a = Message(src=0, dst=1, payload=None)
        b = Message(src=0, dst=1, payload=None)
        assert b.uid > a.uid


class TestEventTrace:
    def test_record_and_filter(self):
        trace = EventTrace()
        trace.record(0, "send", src=1, dst=2)
        trace.record(1, "crash", pid=3)
        trace.record(1, "send", src=2, dst=1)
        assert len(list(trace.of_kind("send"))) == 2
        assert len(list(trace.of_kind("crash"))) == 1
        assert len(trace.events) == 3

    def test_field_access(self):
        trace = EventTrace()
        trace.record(5, "send", src=1, dst=2, kind="gossip")
        event = next(trace.of_kind("send"))
        assert event.t == 5
        assert event.get("src") == 1
        assert event.get("kind") == "gossip"
        assert event.get("missing", "x") == "x"

    def test_capacity_bound(self):
        trace = EventTrace(capacity=3)
        for i in range(10):
            trace.record(i, "tick")
        assert [e.t for e in trace.events] == [7, 8, 9]
