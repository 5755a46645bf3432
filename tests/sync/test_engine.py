"""Tests for the synchronous execution: Simulation at d = δ = 1.

Every live process steps every step and every message arrives one step
after it was sent, so a step is a round and ``ctx.local_step`` is the
round number.
"""

import pytest

from repro.adversary.crash_plans import crash_at
from repro.adversary.oblivious import ObliviousAdversary
from repro.sim.engine import Simulation
from repro.sim.errors import ConfigurationError, CrashBudgetExceeded
from repro.sim.process import Algorithm


def synchronous(algorithms, f=0, crashes=None, seed=0):
    return Simulation(
        len(algorithms), f, algorithms,
        ObliviousAdversary.synchronous_like(crashes), seed=seed,
    )


class Counter(Algorithm):
    def __init__(self):
        self.rounds = 0
        self.received = []

    def on_step(self, ctx, inbox):
        self.rounds += 1
        self.received.extend(m.payload for m in inbox)

    def is_quiescent(self):
        return self.rounds >= 3


class RingTalker(Algorithm):
    def __init__(self, limit=2):
        self.limit = limit
        self.sent = 0
        self.received = []

    def on_step(self, ctx, inbox):
        self.received.extend(m.payload for m in inbox)
        if self.sent < self.limit:
            ctx.send((ctx.pid + 1) % ctx.n, ("r", ctx.local_step, ctx.pid))
            self.sent += 1

    def is_quiescent(self):
        return self.sent >= self.limit


class TestRounds:
    def test_messages_delivered_next_round(self):
        algos = [RingTalker() for _ in range(4)]
        sim = synchronous(algos, f=1)
        sim.step()
        assert all(a.received == [] for a in algos)
        sim.step()
        for pid, algo in enumerate(algos):
            assert algo.received == [("r", 0, (pid - 1) % 4)]

    def test_run_until_all_done(self):
        algos = [Counter() for _ in range(3)]
        result = synchronous(algos).run()
        assert result.completed
        assert result.steps == 3

    def test_round_limit(self):
        class Never(Algorithm):
            def on_step(self, ctx, inbox):
                pass

        result = synchronous([Never(), Never()]).run(max_steps=7)
        assert not result.completed
        assert result.reason == "step-limit"
        assert result.steps == 7

    def test_message_accounting(self):
        algos = [RingTalker(limit=3) for _ in range(5)]
        result = synchronous(algos).run()
        assert result.messages == 15


class TestCrashes:
    def test_crashed_process_stops_participating(self):
        algos = [RingTalker(limit=5) for _ in range(3)]
        sim = synchronous(algos, f=1, crashes=crash_at({1: [0]}))
        sim.run(max_steps=10)
        assert algos[0].sent == 1  # only round 0
        # Its round-0 message still delivered to pid 1 in round 1.
        assert ("r", 0, 0) in algos[1].received

    def test_crash_budget_validated(self):
        sim = synchronous([Counter() for _ in range(3)], f=1,
                          crashes=crash_at({0: [0, 1]}))
        with pytest.raises(CrashBudgetExceeded):
            sim.run()

    def test_messages_to_crashed_are_lost(self):
        algos = [RingTalker(limit=2) for _ in range(3)]
        sim = synchronous(algos, f=1, crashes=crash_at({1: [1]}))
        sim.run(max_steps=10)
        assert algos[1].received == []
        # Pid 0's round-0 message was pending for pid 1 when it crashed;
        # its round-1 message found pid 1 already gone.
        assert sim.metrics.messages_dropped == 2


class TestValidation:
    def test_algorithm_count(self):
        with pytest.raises(ConfigurationError):
            Simulation(3, 1, [Counter()],
                       ObliviousAdversary.synchronous_like())

    def test_rng_deterministic(self):
        class Roller(Algorithm):
            def __init__(self):
                self.rolls = []

            def on_step(self, ctx, inbox):
                self.rolls.append(ctx.rng.random())

        def run(seed):
            algos = [Roller(), Roller()]
            synchronous(algos, seed=seed).run(max_steps=5)
            return [a.rolls for a in algos]

        assert run(3) == run(3)
        assert run(3) != run(4)
