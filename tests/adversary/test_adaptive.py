"""Tests for adaptive adversary strategies."""

from repro.adversary.adaptive import ScriptedAdversary, TargetedDelayAdversary
from repro.core.base import make_processes
from repro.core.trivial import TrivialGossip
from repro.core.uniform import UniformEpidemicGossip
from repro.sim.engine import Simulation
from repro.sim.events import Observer
from repro.sim.message import Message
from repro.sim.monitor import GossipCompletionMonitor

from ..plans import CrashEagerSendersAdversary


class Senders(Observer):
    """Every pid seen sending."""

    def __init__(self):
        self.pids = set()

    def on_send(self, t, msg):
        self.pids.add(msg.src)


def make_sim(algorithm_class, adversary, n=12, f=4, seed=0, **kwargs):
    return Simulation(
        n=n,
        f=f,
        algorithms=make_processes(n, f, algorithm_class, **kwargs),
        adversary=adversary,
        monitor=GossipCompletionMonitor(),
        seed=seed,
    )


class TestTargetedDelay:
    def test_victim_links_realize_full_d(self):
        adversary = TargetedDelayAdversary(victims={0}, d=7)
        sim = make_sim(TrivialGossip, adversary)
        assert sim.run(max_steps=200).completed
        assert sim.metrics.realized_d == 7

    def test_without_victims_network_is_fast(self):
        adversary = TargetedDelayAdversary(victims=set(), d=7)
        sim = make_sim(TrivialGossip, adversary)
        assert sim.run(max_steps=200).completed
        assert sim.metrics.realized_d == 1


class TestCrashEagerSenders:
    def test_crashes_track_algorithm_behaviour(self):
        adversary = CrashEagerSendersAdversary(budget=3)
        sim = make_sim(UniformEpidemicGossip, adversary, n=12, f=3)
        senders = sim.add_observer(Senders())
        sim.run_for(20)
        assert sim.metrics.crashes == 3
        # Victims are senders: every crashed pid sent at least one message.
        assert set(sim.metrics.crash_times) <= senders.pids

    def test_budget_respected(self):
        adversary = CrashEagerSendersAdversary(budget=2)
        sim = make_sim(UniformEpidemicGossip, adversary, n=12, f=4)
        sim.run_for(30)
        assert sim.metrics.crashes == 2

    def test_adaptivity_depends_on_seed(self):
        # The victim set is a function of the algorithm's coin flips —
        # the defining feature an oblivious adversary cannot have.
        def victims(seed):
            adversary = CrashEagerSendersAdversary(budget=3, watch_dst=0)
            sim = make_sim(
                UniformEpidemicGossip, adversary, n=16, f=3, seed=seed
            )
            sim.run_for(10)
            return frozenset(sim.metrics.crash_times)

        distinct = {victims(s) for s in range(6)}
        assert len(distinct) > 1


class TestScriptedSendCounts:
    def test_only_the_named_senders_are_counted(self):
        adversary = ScriptedAdversary()
        adversary.count_sends([1, 3])
        adversary.delay_outbox(
            [Message(1, 2, None), Message(0, 2, None), Message(1, 0, None),
             Message(1, 2, None), Message(3, 1, None)], 0)
        assert adversary.sent == {1: 3, 3: 1}
        # Destinations in first-send order.
        assert list(adversary.sent_to[1].items()) == [(2, 2), (0, 1)]
        assert adversary.sent_to[3] == {1: 1}

    def test_a_clone_counts_on_its_own(self):
        adversary = ScriptedAdversary()
        adversary.count_sends(range(4))
        sim = make_sim(TrivialGossip, adversary, n=4, f=0)
        adversary.delay_outbox([Message(1, 2, None), Message(1, 3, None)], 0)
        dup = sim.fork().adversary
        dup.delay_outbox([Message(1, 2, None)], 1)
        dup.delay_outbox([Message(0, 2, None)], 1)
        adversary.delay_outbox([Message(3, 0, None)], 1)
        assert adversary.sent_to == {0: {}, 1: {2: 1, 3: 1}, 2: {},
                                     3: {0: 1}}
        assert dup.sent_to == {0: {2: 1}, 1: {2: 2, 3: 1}, 2: {}, 3: {}}
        assert adversary.sent == {0: 0, 1: 2, 2: 0, 3: 1}
        assert dup.sent == {0: 1, 1: 3, 2: 0, 3: 0}
