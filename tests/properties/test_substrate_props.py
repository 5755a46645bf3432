"""Property-based tests for substrate invariants: schedules, delays, fits."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.adversary.delay_plans import HashDelay
from repro.analysis.fitting import fit_power_law, fit_power_law_with_log
from repro.sim.message import Message
from repro.sim.rng import derive_seed
from repro.sim.scheduler import RoundRobinWindows

from ..plans import StaggeredWindows


class TestSchedulerGuarantees:
    @given(st.integers(min_value=1, max_value=12),
           st.integers(min_value=2, max_value=20))
    @settings(max_examples=30)
    def test_round_robin_gap_bound(self, delta, n):
        plan = RoundRobinWindows(delta)
        alive = frozenset(range(n))
        for pid in range(n):
            times = [t for t in range(4 * delta + delta)
                     if pid in plan.scheduled_at(t, alive)]
            gaps = [times[0] + 1] + [
                b - a for a, b in zip(times, times[1:])
            ]
            assert max(gaps) <= plan.target_delta

    @given(st.integers(min_value=1, max_value=8),
           st.integers(min_value=2, max_value=12),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25)
    def test_staggered_gap_bound(self, delta, n, seed):
        plan = StaggeredWindows(delta, seed=seed)
        alive = frozenset(range(n))
        horizon = 6 * delta
        for pid in range(n):
            times = [t for t in range(horizon)
                     if pid in plan.scheduled_at(t, alive)]
            gaps = [times[0] + 1] + [
                b - a for a, b in zip(times, times[1:])
            ]
            assert max(gaps) <= plan.target_delta


class TestDelayPlans:
    @given(st.integers(min_value=1, max_value=30),
           st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30)
    def test_hash_delay_within_bounds(self, d, seed):
        plan = HashDelay(d, seed=seed)
        for src, dst, t in [(0, 1, 0), (3, 2, 17), (5, 5, 99)]:
            msg = Message(src=src, dst=dst, payload=None)
            msg.sent_at = t
            assert 1 <= plan.assign(msg) <= d


class TestSeedDerivation:
    @given(st.integers(), st.integers(), st.integers())
    @settings(max_examples=40)
    def test_no_collisions_across_paths(self, master, a, b):
        if a != b:
            assert derive_seed(master, a) != derive_seed(master, b)


class TestPowerLawFit:
    @given(
        st.floats(min_value=0.5, max_value=3.0),
        st.floats(min_value=0.1, max_value=100.0),
    )
    @settings(max_examples=40)
    def test_recovers_exact_power_law(self, exponent, coefficient):
        xs = [8.0, 16.0, 32.0, 64.0, 128.0]
        ys = [coefficient * x ** exponent for x in xs]
        fit = fit_power_law(xs, ys)
        assert math.isclose(fit.exponent, exponent, rel_tol=1e-6)
        assert fit.r_squared > 0.999

    @given(st.floats(min_value=0.5, max_value=2.5),
           st.floats(min_value=0.5, max_value=3.0))
    @settings(max_examples=30)
    def test_log_correction_removes_declared_logs(self, exponent, log_power):
        xs = [16.0, 32.0, 64.0, 128.0, 256.0]
        ys = [x ** exponent * math.log(x) ** log_power for x in xs]
        fit = fit_power_law_with_log(xs, ys, log_power)
        assert math.isclose(fit.exponent, exponent, rel_tol=1e-6)
