"""Tests for the composed oblivious adversary."""

from repro.adversary.crash_plans import crash_at
from repro.adversary.oblivious import ObliviousAdversary
from repro.core.trivial import TrivialGossip

from ..conftest import build_gossip_sim


class TestTargets:
    def test_synchronous_like(self):
        adversary = ObliviousAdversary.synchronous_like()
        assert adversary.target_d == 1
        assert adversary.target_delta == 1

    def test_uniform_targets(self):
        adversary = ObliviousAdversary.uniform(d=5, delta=3)
        assert adversary.target_d == 5
        assert adversary.target_delta == 3


class TestRealizedBoundsMatchTargets:
    def test_realized_within_targets(self):
        for d, delta in [(1, 1), (3, 1), (1, 4), (4, 3)]:
            sim = build_gossip_sim(TrivialGossip, n=12, f=3, d=d, delta=delta)
            assert sim.run(max_steps=1000).completed
            assert sim.metrics.realized_d <= d
            assert sim.metrics.realized_delta <= delta

    def test_pending_events_follow_crash_plan(self):
        adversary = ObliviousAdversary.uniform(
            d=1, delta=1, crashes=crash_at({5: [0]})
        )
        assert adversary.has_pending_events(0)
        assert adversary.has_pending_events(5)
        assert not adversary.has_pending_events(6)

    def test_schedule_excludes_crashed(self):
        adversary = ObliviousAdversary.uniform(d=1, delta=1)
        assert adversary.schedule_at(0, frozenset({1, 2})) == {1, 2}
