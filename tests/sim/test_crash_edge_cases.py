"""Crash-path edge cases: budget, idempotence, queue accounting, forks."""

import pytest

from repro.adversary.crash_plans import crash_at
from repro.adversary.oblivious import ObliviousAdversary
from repro.sim.engine import Simulation
from repro.sim.errors import CrashBudgetExceeded
from repro.sim.message import Message

from .algos import RingSender, Silent, quiescence


def make_sim(algorithms, adversary=None, f=None, monitor=None):
    n = len(algorithms)
    return Simulation(
        n=n,
        f=f if f is not None else max(0, n - 1),
        algorithms=algorithms,
        adversary=adversary or ObliviousAdversary.synchronous_like(),
        monitor=monitor,
    )


class TestCrashBudget:
    def test_plan_beyond_budget_raises(self):
        adversary = ObliviousAdversary.synchronous_like(
            crashes=crash_at({0: [0], 1: [1]})
        )
        sim = make_sim([Silent() for _ in range(3)], adversary=adversary,
                       f=1)
        with pytest.raises(CrashBudgetExceeded):
            sim.run(max_steps=5)

    def test_manual_crash_beyond_budget_raises(self):
        sim = make_sim([Silent() for _ in range(3)], f=1)
        sim.crash(0)
        with pytest.raises(CrashBudgetExceeded):
            sim.crash(1)


class TestCrashIdempotence:
    def test_crashing_a_crashed_pid_is_a_no_op(self):
        sim = make_sim([Silent() for _ in range(3)], f=2)
        sim.crash(1)
        crashes_before = sim.metrics.crashes
        sim.crash(1)  # second crash of the same pid: silently ignored
        assert sim.metrics.crashes == crashes_before == 1
        assert sim.alive_pids == frozenset({0, 2})


class TestQueueAccounting:
    def test_drop_all_for_updates_in_flight(self):
        sim = make_sim([Silent() for _ in range(4)], f=2)
        for uid_seed in range(3):
            sim.network.enqueue([Message(
                src=0, dst=2, payload=uid_seed, sent_at=0, delay=5,
            )], sim.alive_pids)
        sim.network.enqueue([Message(src=0, dst=3, payload="x", sent_at=0,
                                     delay=5)], sim.alive_pids)
        assert sim.network.in_flight == 4
        sim.crash(2)
        # The engine drops the crashed receiver's queue on crash.
        assert sim.network.pending_for(2) == 0
        assert sim.network.in_flight == 1
        assert sim.network.pending_for(3) == 1

    def test_drop_all_for_returns_count(self):
        sim = make_sim([Silent() for _ in range(3)], f=1)
        sim.network.enqueue([Message(src=0, dst=1, payload=None, sent_at=0,
                                     delay=3)], sim.alive_pids)
        assert sim.network.drop_all_for(1) == 1
        assert sim.network.drop_all_for(1) == 0
        assert sim.network.in_flight == 0


class TestForkIndependence:
    def test_crash_after_fork_leaves_fork_untouched(self):
        algos = [RingSender(count=2) for _ in range(4)]
        sim = make_sim(algos, f=2, monitor=quiescence())
        sim.run_for(1)  # messages now in flight
        assert sim.network.in_flight > 0
        fork = sim.fork()
        before = fork.network.in_flight
        sim.crash(1)
        assert fork.network.in_flight == before
        assert fork.is_alive(1)
        assert fork.network.pending_for(1) > 0 or before == 0

    def test_fork_after_crash_drops_independently(self):
        sim = make_sim([RingSender(count=2) for _ in range(4)], f=2,
                       monitor=quiescence())
        sim.run_for(1)
        sim.crash(1)
        fork = sim.fork()
        assert not fork.is_alive(1)
        assert fork.network.pending_for(1) == 0
        # Both executions finish without interfering with each other.
        assert sim.run(max_steps=100).completed
        assert fork.run(max_steps=100).completed
