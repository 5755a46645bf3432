"""Tests for completion monitors over real gossip simulations."""

from repro.core.tears import Tears
from repro.core.trivial import TrivialGossip
from repro.sim.monitor import (
    GossipCompletionMonitor,
    QuiescenceMonitor,
    quiescent,
)

from ..conftest import build_gossip_sim


class TestGossipCompletionMonitor:
    def test_not_complete_at_start(self):
        sim = build_gossip_sim(TrivialGossip, n=8, f=2)
        assert not sim.monitor.check(sim)

    def test_completes_after_broadcast(self):
        sim = build_gossip_sim(TrivialGossip, n=8, f=2)
        result = sim.run(max_steps=100)
        assert result.completed
        assert sim.monitor.check(sim)

    def test_gathering_time_recorded_before_completion(self):
        sim = build_gossip_sim(TrivialGossip, n=8, f=2, d=3)
        sim.run(max_steps=100).require_completed()
        assert sim.monitor.gathering_time is not None
        assert sim.monitor.gathering_time <= sim.metrics.completion_time

    def test_majority_mode_needs_majority_only(self):
        sim = build_gossip_sim(Tears, n=16, f=4, majority=True)
        result = sim.run(max_steps=500)
        assert result.completed
        need = 16 // 2 + 1
        for pid in sim.alive_pids:
            assert sim.algorithm(pid).rumor_count() >= need

    def test_in_flight_message_blocks_completion(self):
        sim = build_gossip_sim(TrivialGossip, n=4, f=0, d=5)
        sim.step()  # broadcasts sent, all in flight with delay 5
        monitor = GossipCompletionMonitor()
        assert not monitor.check(sim)
        assert not quiescent(sim)


class TestQuiescenceMonitor:
    def test_holds_only_when_network_empty(self):
        sim = build_gossip_sim(TrivialGossip, n=4, f=0, d=5)
        monitor = QuiescenceMonitor()
        sim.step()
        assert not monitor.check(sim)
        sim.run_for(10)
        assert monitor.check(sim)
