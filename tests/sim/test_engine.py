"""Tests for the discrete-step engine: model semantics, determinism, forking."""

import pytest

from repro.adversary.adaptive import ScriptedAdversary
from repro.adversary.crash_plans import crash_at
from repro.adversary.oblivious import ObliviousAdversary
from repro.sim.engine import Simulation
from repro.sim.errors import (
    ConfigurationError,
    CrashBudgetExceeded,
    IncompleteRunError,
)
from repro.sim.events import TraceObserver
from repro.sim.monitor import PredicateMonitor, QuiescenceMonitor
from repro.sim.process import Algorithm
from repro.sim.scheduler import RoundRobinWindows
from repro.sim.trace import EventTrace

from .algos import Echo, Kickoff, RandomSpammer, RingSender, Silent


def make_sim(algorithms, adversary=None, f=None, monitor=None, seed=0,
             observers=()):
    n = len(algorithms)
    return Simulation(
        n=n,
        f=f if f is not None else max(0, n - 1),
        algorithms=algorithms,
        adversary=adversary or ObliviousAdversary.synchronous_like(),
        monitor=monitor,
        seed=seed,
        observers=observers,
    )


class TestConstruction:
    def test_rejects_bad_f(self):
        with pytest.raises(ConfigurationError):
            make_sim([Silent(), Silent()], f=2)

    def test_rejects_wrong_algorithm_count(self):
        with pytest.raises(ConfigurationError):
            Simulation(
                n=3,
                f=1,
                algorithms=[Silent()],
                adversary=ObliviousAdversary.synchronous_like(),
            )

    def test_on_start_may_not_send(self):
        class Eager(Silent):
            def on_start(self, ctx):
                ctx.send(0, "early")

        with pytest.raises(ConfigurationError):
            make_sim([Eager(), Silent()])


class TestStepSemantics:
    def test_ring_message_flow_synchronous(self):
        algos = [RingSender(count=1) for _ in range(4)]
        sim = make_sim(algos, monitor=QuiescenceMonitor())
        result = sim.run(max_steps=50)
        assert result.completed
        # Everyone sent one message and received one from its predecessor.
        for pid, algo in enumerate(algos):
            assert algo.received == [("hop", (pid - 1) % 4, 0)]
        assert result.messages == 4

    def test_message_to_crashed_process_counts_but_never_delivers(self):
        adversary = ObliviousAdversary.synchronous_like(
            crashes=crash_at({0: [1]})
        )
        algos = [RingSender(count=1) for _ in range(3)]
        sim = make_sim(algos, adversary=adversary, f=1,
                       monitor=QuiescenceMonitor())
        result = sim.run(max_steps=50)
        assert result.completed
        assert result.messages == 2  # pid 1 crashed before sending
        assert algos[1].received == []

    def test_crashed_process_takes_no_steps(self):
        adversary = ObliviousAdversary.synchronous_like(
            crashes=crash_at({2: [0]})
        )
        algos = [Silent() for _ in range(3)]
        sim = make_sim(algos, adversary=adversary, f=1)
        sim.run_for(6)
        assert algos[0].steps == 2  # steps at t=0,1 only
        assert algos[1].steps == 6

    def test_crash_budget_enforced(self):
        adversary = ObliviousAdversary.synchronous_like(
            crashes=crash_at({0: [0], 1: [1]})
        )
        sim = make_sim([Silent() for _ in range(3)], adversary=adversary, f=1)
        sim.step()
        with pytest.raises(CrashBudgetExceeded):
            sim.step()

    def test_local_steps_counted_in_metrics(self):
        sim = make_sim([Silent(), Silent()])
        sim.run_for(5)
        assert sim.metrics.local_steps_taken == 10


class TestRealizedSynchrony:
    def test_realized_d_with_fixed_delay(self):
        from repro.adversary.delay_plans import FixedDelay

        adversary = ObliviousAdversary(delays=FixedDelay(3))
        algos = [RingSender(count=2) for _ in range(4)]
        sim = make_sim(algos, adversary=adversary, monitor=QuiescenceMonitor())
        result = sim.run(max_steps=100).require_completed()
        assert result.metrics["realized_d"] == 3

    def test_realized_delta_with_windows(self):
        adversary = ObliviousAdversary(schedule=RoundRobinWindows(4))
        sim = make_sim([Silent() for _ in range(4)], adversary=adversary)
        sim.run_for(16)
        assert sim.metrics.realized_delta == 4

    def test_realized_delta_everystep_is_one(self):
        sim = make_sim([Silent() for _ in range(4)])
        sim.run_for(8)
        assert sim.metrics.realized_delta == 1


class TestDeterminism:
    def _run(self, seed):
        algos = [RandomSpammer() for _ in range(6)]
        sim = make_sim(algos, seed=seed)
        sim.run_for(30)
        return [a.targets for a in algos], sim.metrics.messages_sent

    def test_same_seed_same_execution(self):
        assert self._run(7) == self._run(7)

    def test_different_seed_different_execution(self):
        targets_a, _ = self._run(7)
        targets_b, _ = self._run(8)
        assert targets_a != targets_b


class TestRunControl:
    def test_monitor_completion_stops_run(self):
        algos = [Kickoff(), Kickoff()]
        seen = PredicateMonitor(
            lambda sim: len(sim.algorithm(0).received) >= 1, name="got-kick"
        )
        result = make_sim(algos, monitor=seen).run(max_steps=100)
        assert result.completed
        assert result.reason == "completed"

    def test_step_limit_reported(self):
        result = make_sim([RandomSpammer(), RandomSpammer()]).run(max_steps=5)
        assert not result.completed
        assert result.reason == "step-limit"
        with pytest.raises(IncompleteRunError):
            result.require_completed()

    def test_stalled_detection(self):
        never = PredicateMonitor(lambda sim: False, name="never")
        result = make_sim(
            [RingSender(count=1), RingSender(count=1)], monitor=never
        ).run(max_steps=10_000)
        assert not result.completed
        assert result.reason == "stalled"
        assert result.steps < 100

    def test_stall_waits_for_pending_crashes(self):
        # A pending crash may still change the predicate: the engine must
        # keep stepping until the crash plan is exhausted.
        adversary = ObliviousAdversary.synchronous_like(
            crashes=crash_at({20: [1]})
        )
        only_zero_left = PredicateMonitor(
            lambda sim: sim.alive_pids == frozenset({0}), name="only-zero"
        )
        result = make_sim(
            [Silent(), Silent()], adversary=adversary, f=1,
            monitor=only_zero_left,
        ).run(max_steps=1000)
        assert result.completed
        assert result.completion_time >= 20


class TestFork:
    def test_fork_diverges_without_affecting_original(self):
        algos = [RandomSpammer() for _ in range(4)]
        sim = make_sim(algos, seed=3)
        sim.run_for(5)
        fork = sim.fork()
        fork.run_for(10)
        assert sim.now == 5
        assert all(len(a.targets) == 5 for a in algos)
        assert all(
            len(fork.algorithm(pid).targets) == 15 for pid in range(4)
        )

    def test_fork_replays_identically(self):
        sim = make_sim([RandomSpammer() for _ in range(4)], seed=3)
        sim.run_for(5)
        fork_a, fork_b = sim.fork(), sim.fork()
        fork_a.run_for(10)
        fork_b.run_for(10)
        assert [fork_a.algorithm(p).targets for p in range(4)] == [
            fork_b.algorithm(p).targets for p in range(4)
        ]

    def test_fork_network_state_independent(self):
        algos = [RingSender(count=1), Silent()]
        sim = make_sim(algos)
        sim.step()  # message from 0 to 1 now in flight
        fork = sim.fork()
        fork.run_for(3)
        assert sim.network.in_flight == 1
        assert fork.network.in_flight == 0


class TestScriptedAdversary:
    def test_schedule_restriction(self):
        adversary = ScriptedAdversary()
        adversary.scheduled = {0}
        algos = [Silent() for _ in range(3)]
        sim = make_sim(algos, adversary=adversary)
        sim.run_for(4)
        assert algos[0].steps == 4
        assert algos[1].steps == 0

    def test_queued_crashes_fire_once(self):
        adversary = ScriptedAdversary()
        sim = make_sim([Silent() for _ in range(3)], adversary=adversary, f=2)
        adversary.queue_crashes([1, 2])
        sim.step()
        assert sim.alive_pids == frozenset({0})
        sim.step()  # queue drained; no double-crash
        assert sim.metrics.crashes == 2

    def test_delivery_suppression_inflates_delay(self):
        adversary = ScriptedAdversary()
        adversary.suppress_delivery_until = 50
        algos = [RingSender(count=1), Silent()]
        sim = make_sim(algos, adversary=adversary)
        sim.run_for(30)
        assert algos[1].received == []
        sim.run_for(25)
        assert algos[1].received != []


class TestTraceIntegration:
    def test_trace_records_sends_and_crashes(self):
        trace = EventTrace()
        adversary = ObliviousAdversary.synchronous_like(
            crashes=crash_at({1: [2]})
        )
        algos = [RingSender(count=1) for _ in range(3)]
        sim = make_sim(algos, adversary=adversary, f=1,
                       monitor=QuiescenceMonitor(),
                       observers=(TraceObserver(trace),))
        sim.run(max_steps=20)
        assert trace.count("send") == 3
        assert trace.count("crash") == 1
        crash = next(trace.of_kind("crash"))
        assert crash.get("pid") == 2
