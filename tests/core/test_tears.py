"""Tests for TEARS two-hop majority gossip."""

import pytest

from repro.api import run_gossip
from repro.core.params import DEFAULT_TEARS, TearsParams
from repro.core.properties import majority_gathering_holds, validity_holds
from repro.core.tears import Tears
from repro.sim.process import Context
from repro.sim.rng import derive_rng


class TestTriggerRule:
    def make(self, n=4096, mu=None, kappa=None):
        algo = Tears(pid=0, n=16, f=7)
        if mu is not None:
            algo.mu = mu
        if kappa is not None:
            algo.kappa = kappa
        return algo

    def test_window_values_trigger(self):
        algo = self.make(mu=100, kappa=10)
        for v in range(90, 110):
            assert algo._is_trigger(v), v

    def test_outside_window_non_multiples_do_not(self):
        algo = self.make(mu=100, kappa=10)
        assert not algo._is_trigger(89)
        assert not algo._is_trigger(111)
        assert not algo._is_trigger(115)

    def test_periodic_triggers(self):
        algo = self.make(mu=100, kappa=10)
        for i in (1, 2, 5):
            assert algo._is_trigger(100 + i * 10)

    def test_crossing_detects_jumps_over_window(self):
        algo = self.make(mu=100, kappa=10)
        assert algo._crossed_trigger(80, 95)
        assert algo._crossed_trigger(85, 200)  # leapt the whole window
        assert not algo._crossed_trigger(110, 115)
        assert algo._crossed_trigger(110, 120)  # crosses mu + 2*kappa
        assert not algo._crossed_trigger(50, 60)
        assert not algo._crossed_trigger(95, 95)

    def test_crossing_periodic_far_out(self):
        algo = self.make(mu=100, kappa=10)
        assert algo._crossed_trigger(195, 205)  # crosses 200 = mu + 10k

    def test_no_reverse_crossing(self):
        algo = self.make(mu=100, kappa=10)
        assert not algo._crossed_trigger(100, 99)


class TestMembership:
    def test_pi_sets_exclude_self_and_match_probability(self):
        n = 400
        algo = Tears(pid=7, n=n, f=100)
        ctx = Context(7, n, 100, derive_rng(1, "p", 7))
        algo.on_step(ctx, [])
        assert 7 not in algo.pi1 and 7 not in algo.pi2
        # E[|Π1|] = (n−1)·a/n ≈ a, against Lemma 8's range.
        expected = (n - 1) * DEFAULT_TEARS.membership_probability(n)
        assert 0.5 * expected <= len(algo.pi1) <= 1.5 * expected

    def test_first_step_sends_first_level_with_flag(self):
        algo = Tears(pid=0, n=64, f=31)
        ctx = Context(0, 64, 31, derive_rng(1, "p", 0))
        algo.on_step(ctx, [])
        assert ctx.outbox
        assert all(m.kind == "first-level" for m in ctx.outbox)
        assert all(m.payload[2] is True for m in ctx.outbox)
        # Second step sends nothing without arrivals.
        ctx.outbox = []
        algo.on_step(ctx, [])
        assert ctx.outbox == []
        assert algo.is_quiescent()


class TestTearsRuns:
    @pytest.mark.parametrize("seed", range(5))
    def test_majority_gossip_completes(self, seed):
        run = run_gossip("tears", n=48, f=23, d=1, delta=1, seed=seed,
                         crashes=23)
        assert run.completed
        assert majority_gathering_holds(run.sim)
        assert validity_holds(run.sim)

    def test_constant_time_in_n(self):
        small = run_gossip("tears", n=24, f=11, seed=2)
        large = run_gossip("tears", n=96, f=47, seed=2)
        assert small.completed and large.completed
        assert large.completion_time <= small.completion_time + 4

    def test_message_kinds(self):
        run = run_gossip("tears", n=48, f=23, seed=1)
        assert run.messages_by_kind.get("first-level", 0) > 0
        assert run.messages_by_kind.get("second-level", 0) > 0

    def test_messages_bounded_independent_of_delay(self):
        """The headline TEARS property (Theorem 12): the message bound has
        no (d + δ) factor. Exact counts vary with arrival granularity (a
        batched inbox collapses several trigger crossings into one batch),
        but the per-process accounting from the proof —
        first-level ≤ a+κ and second-level batches ≤ 2κ+1+(fan-in)/κ —
        caps both executions identically."""
        import math

        n = 48
        runs = [
            run_gossip("tears", n=n, f=23, d=1, delta=1, seed=4),
            run_gossip("tears", n=n, f=23, d=6, delta=4, seed=4),
        ]
        params = runs[0].sim.algorithm(0).params
        a = params.a(n)
        kappa = params.kappa(n)
        fan_in = 40 * math.sqrt(n) * math.log(n)
        per_process = (a + kappa) + (2 * kappa + 1 + fan_in / kappa) * (
            a + kappa
        )
        bound = n * per_process
        for run in runs:
            assert run.completed
            assert run.messages <= bound

    def test_scaled_params_reduce_messages(self):
        full = run_gossip("tears", n=128, f=63, seed=5)
        scaled = run_gossip("tears", n=128, f=63, seed=5,
                            params=TearsParams.scaled(0.25))
        assert scaled.messages < full.messages
        assert scaled.completed
