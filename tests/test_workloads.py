"""Tests for the workloads package: sweeps and process-context plumbing."""

import pytest

from repro.sim.message import expand
from repro.sim.process import Context
from repro.sim.errors import AlgorithmError
from repro.sim.rng import derive_rng
from repro.workloads.sweeps import (
    geometric_ns,
    near_half,
    quarter,
    sweep_gossip,
    three_quarters,
)


class TestGeometricNs:
    def test_basic(self):
        assert geometric_ns(16, 128) == [16, 32, 64, 128]

    def test_factor(self):
        assert geometric_ns(10, 1000, factor=10) == [10, 100, 1000]

    def test_stop_excluded_if_overshoot(self):
        assert geometric_ns(16, 100) == [16, 32, 64]


class TestFailureFractions:
    def test_fractions(self):
        assert quarter(64) == 16
        assert near_half(64) == 31
        assert three_quarters(64) == 48


class TestSweepGossip:
    def test_aggregates_per_n(self):
        points = sweep_gossip("trivial", ns=[8, 16], f_of_n=quarter,
                              seeds=range(2))
        assert len(points) == 2
        first, second = points
        assert first.n == 8 and second.n == 16
        assert first.completion_rate == 1.0
        assert first.messages.mean == 8 * 7
        assert second.messages.mean == 16 * 15
        assert first.seeds == 2

    def test_crash_mode_kills_f(self):
        points = sweep_gossip("ears", ns=[16], f_of_n=quarter,
                              seeds=range(2), crash=True)
        assert points[0].completion_rate == 1.0

    def test_params_of_n_applied(self):
        from repro.core.params import SearsParams

        points = sweep_gossip(
            "sears", ns=[16], f_of_n=quarter, seeds=range(1),
            params_of_n=lambda n: SearsParams(eps=0.25),
        )
        assert points[0].completion_rate == 1.0


class TestContextPlumbing:
    def make(self, pid=0, n=8):
        return Context(pid, n, 2, derive_rng(0, "ctx", pid))

    def test_send_validates_destination(self):
        ctx = self.make()
        with pytest.raises(AlgorithmError):
            ctx.send(8, None)
        with pytest.raises(AlgorithmError):
            ctx.send(-1, None)

    def test_send_many_counts(self):
        ctx = self.make()
        assert ctx.send_many([1, 2, 3], "x") == 3
        assert len(expand(ctx.outbox)) == 3

    def test_random_peer_in_range(self):
        ctx = self.make()
        draws = {ctx.random_peer() for _ in range(200)}
        assert draws <= set(range(8))
        assert len(draws) > 4  # actually uniform-ish

    def test_local_step_counter_via_engine(self):
        from repro.adversary.oblivious import ObliviousAdversary
        from repro.core.base import make_processes
        from repro.core.uniform import UniformEpidemicGossip
        from repro.sim.engine import Simulation

        sim = Simulation(
            n=4, f=0,
            algorithms=make_processes(4, 0, UniformEpidemicGossip),
            adversary=ObliviousAdversary.synchronous_like(),
        )
        sim.run_for(5)
        assert all(
            sim.processes[pid].ctx.local_step == 5 for pid in range(4)
        )
