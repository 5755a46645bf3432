"""Tests for the eventually-synchronous (GST) adversary."""

import pytest

from repro.adversary.gst import GstAdversary
from repro.core.base import make_processes
from repro.core.ears import Ears
from repro.core.tears import Tears
from repro.core.trivial import TrivialGossip
from repro.sim.engine import Simulation
from repro.sim.errors import ConfigurationError
from repro.sim.message import Message
from repro.sim.monitor import GossipCompletionMonitor


def run(algorithm_class, n=32, f=8, gst=40, d=2, delta=2, seed=1,
        majority=False, max_steps=20_000):
    adversary = GstAdversary(gst=gst, d=d, delta=delta, seed=seed)
    sim = Simulation(
        n=n, f=f, algorithms=make_processes(n, f, algorithm_class),
        adversary=adversary,
        monitor=GossipCompletionMonitor(majority=majority), seed=seed,
    )
    return sim.run(max_steps=max_steps), sim


class TestDelayRegimes:
    def test_pre_gst_messages_held_until_gst(self):
        adversary = GstAdversary(gst=50, d=2, delta=1)
        msg = Message(src=0, dst=1, payload=None)
        msg.sent_at = 10
        delay = adversary.assign_delay(msg)
        assert msg.sent_at + delay > 50
        assert msg.sent_at + delay <= 50 + 2 + 1

    def test_post_gst_delays_bounded(self):
        adversary = GstAdversary(gst=50, d=3, delta=1)
        # The bounds it declares are the post-GST ones.
        assert (adversary.target_d, adversary.target_delta) == (3, 1)
        for t in (50, 60, 99):
            msg = Message(src=0, dst=1, payload=None)
            msg.sent_at = t
            assert 1 <= adversary.assign_delay(msg) <= 3

    def test_pre_gst_schedule_sparse(self):
        adversary = GstAdversary(gst=100, d=1, delta=1, pre_gst_delta=8)
        alive = frozenset(range(16))
        sizes = [len(adversary.schedule_at(t, alive)) for t in range(8)]
        assert max(sizes) <= 2
        assert len(adversary.schedule_at(100, alive)) == 16

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            GstAdversary(gst=-1)
        with pytest.raises(ConfigurationError):
            GstAdversary(gst=0, d=0)

    def test_pending_events_until_gst(self):
        adversary = GstAdversary(gst=30)
        assert adversary.has_pending_events(29)
        assert not adversary.has_pending_events(30)


class TestAlgorithmsRideOutChaos:
    @pytest.mark.parametrize("algorithm_class,majority", [
        (TrivialGossip, False), (Ears, False), (Tears, True),
    ])
    def test_completion_despite_chaotic_prefix(self, algorithm_class,
                                               majority):
        result, sim = run(algorithm_class, majority=majority)
        assert result.completed
        assert result.completion_time > 40  # nothing can finish before GST

    def test_post_gst_complexity_matches_bounds(self):
        """The paper's framing: partially synchronous complexity is the
        cost *once bounds hold*. EARS' post-GST completion span matches
        its plain (d, δ) = (2, 2) completion time within a small factor."""
        gst = 60
        result, _ = run(Ears, gst=gst, d=2, delta=2, seed=3)
        assert result.completed
        post_gst_span = result.completion_time - gst

        from repro.api import run_gossip

        plain = run_gossip("ears", n=32, f=8, d=2, delta=2, seed=3)
        assert post_gst_span <= 3 * plain.completion_time
        assert post_gst_span >= plain.completion_time / 3

    def test_prefix_cost_step_driven_vs_arrival_driven(self):
        """EARS sends one message per local step, so its bill for the
        chaotic prefix grows with the prefix's *duration*; TEARS pays a
        one-time first-level burst and then waits for arrivals, so its
        prefix bill is flat in GST — the same d/δ-independence of its
        message complexity, seen through the DLS lens."""
        ears_short = self._messages_at(Ears, gst=40, seed=2)
        ears_long = self._messages_at(Ears, gst=160, seed=2)
        tears_short = self._messages_at(Tears, gst=40, seed=2)
        tears_long = self._messages_at(Tears, gst=160, seed=2)
        assert ears_long >= 3 * ears_short       # grows with the chaos
        assert tears_long == tears_short         # one-time burst only

    @staticmethod
    def _messages_at(algorithm_class, gst, seed):
        adversary = GstAdversary(gst=gst, d=2, delta=2, seed=seed)
        sim = Simulation(
            n=32, f=8, algorithms=make_processes(32, 8, algorithm_class),
            adversary=adversary, monitor=None, seed=seed,
        )
        sim.run_for(gst)
        return sim.metrics.messages_sent
