"""Tests for completion monitors over real gossip simulations."""

import random
from collections import Counter

from repro.adversary.crash_plans import crash_at
from repro.core.ears import Ears
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


class LiteralMonitor(GossipCompletionMonitor):
    """The definition, both halves evaluated on every call."""

    def check(self, sim):
        gathered = self.gathered(sim)
        if gathered and self.gathering_time is None:
            self.gathering_time = sim.now
        return gathered and quiescent(sim)


def test_check_is_the_literal_conjunction_in_every_state():
    """``check`` asks for quiescence first once gathering is timestamped;
    over live states — messages in flight or none, some processes asleep,
    V(p) tampered down and put back after gathering, crashes — it must
    answer, and timestamp, exactly as ``gathered and quiescent`` does."""
    seen = Counter()
    for seed in range(24):
        rng = random.Random(seed)
        algorithm, majority = ((Ears, False), (Tears, True))[seed % 2]
        sim = build_gossip_sim(
            algorithm, n=10, f=3, d=rng.choice((1, 3)), seed=seed,
            delta=rng.choice((1, 4)), majority=majority,
            crashes=crash_at({rng.randrange(2, 30): [rng.randrange(10)]}),
        )
        fast, literal = sim.monitor, LiteralMonitor(majority=majority)
        stolen = []
        for _ in range(120):
            sim.step()
            if fast.gathering_time is not None and rng.random() < 0.3:
                if stolen and rng.random() < 0.5:
                    pid, mask = stolen.pop()
                    sim.algorithm(pid).rumors.mask |= mask
                else:
                    pid = rng.choice(sorted(sim.alive_pids))
                    mask = sim.algorithm(pid).rumors.mask
                    stolen.append((pid, mask))
                    sim.algorithm(pid).rumors.mask &= rng.getrandbits(10)
            verdict = literal.check(sim)
            assert fast.check(sim) is verdict
            assert fast.gathering_time == literal.gathering_time
            seen[bool(sim.network.in_flight), quiescent(sim),
                 fast.gathered(sim), verdict] += 1
    # Every kind of state the short cut could get wrong was visited.
    assert seen[False, True, True, True]        # complete
    assert seen[False, True, False, False]      # quiescent, V tampered
    assert seen[True, False, True, False]       # gathered, still talking
    assert seen[False, False, True, False]      # drained, someone awake
    assert seen[True, False, False, False]


class TestQuiescenceMonitor:
    def test_holds_only_when_network_empty(self):
        sim = build_gossip_sim(TrivialGossip, n=4, f=0, d=5)
        monitor = QuiescenceMonitor()
        sim.step()
        assert not monitor.check(sim)
        sim.run_for(10)
        assert monitor.check(sim)
