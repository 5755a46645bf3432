"""Run-loop robustness: strict mode and the final monitor check."""

import pytest

from repro.adversary.oblivious import ObliviousAdversary
from repro.sim.engine import Simulation
from repro.sim.errors import IncompleteRunError
from repro.sim.monitor import PredicateMonitor

from .algos import RandomSpammer, RingSender, Silent, quiescence


def make_sim(algorithms, adversary=None, f=None, monitor=None):
    n = len(algorithms)
    return Simulation(
        n=n,
        f=f if f is not None else max(0, n - 1),
        algorithms=algorithms,
        adversary=adversary or ObliviousAdversary.synchronous_like(),
        monitor=monitor,
    )


class TestStrictMode:
    def test_step_limit_raises_with_diagnostics(self):
        sim = make_sim([RandomSpammer() for _ in range(3)],
                       monitor=PredicateMonitor(lambda s: False))
        with pytest.raises(IncompleteRunError) as info:
            sim.run(max_steps=5, strict=True)
        err = info.value
        assert err.reason == "step-limit"
        assert err.steps == 5
        assert isinstance(err.in_flight, int)
        assert err.quiescent == frozenset()  # spammers never quiesce
        assert err.result is not None and not err.result.completed

    def test_stall_raises_with_quiescent_set(self):
        sim = make_sim([Silent() for _ in range(3)],
                       monitor=PredicateMonitor(lambda s: False))
        with pytest.raises(IncompleteRunError) as info:
            sim.run(max_steps=50, strict=True)
        err = info.value
        assert err.reason == "stalled"
        assert err.quiescent == frozenset({0, 1, 2})
        assert err.in_flight == 0

    def test_non_strict_returns_incomplete_result(self):
        sim = make_sim([RandomSpammer() for _ in range(3)],
                       monitor=PredicateMonitor(lambda s: False))
        result = sim.run(max_steps=5)
        assert not result.completed and result.reason == "step-limit"

    def test_strict_completed_run_does_not_raise(self):
        sim = make_sim([RingSender(count=1) for _ in range(3)],
                       monitor=quiescence())
        assert sim.run(max_steps=50, strict=True).completed


class TestFinalMonitorCheck:
    def test_completion_found_at_step_limit(self):
        # The condition holds by step 2. A run entered at its step limit
        # executes nothing, but must still check the monitor once rather
        # than report "step-limit".
        sim = make_sim([RingSender(count=1) for _ in range(3)],
                       monitor=quiescence())
        sim.run_for(4)
        result = sim.run(max_steps=sim.now)
        assert result.completed
        assert result.reason == "completed"
        assert result.completion_time == sim.now == 4
