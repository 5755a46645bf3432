"""Tests for oblivious crash plans."""

import pytest

from repro.adversary.crash_plans import (
    CrashPlan,
    crash_at,
    no_crashes,
    random_crashes,
    staggered_halving,
    wave_crashes,
)
from repro.sim.errors import ConfigurationError


class TestCrashPlanBasics:
    def test_no_crashes(self):
        plan = no_crashes()
        assert plan.total == 0
        assert plan.crashes_at(0) == set()
        assert not plan.has_pending(0)

    def test_explicit_events(self):
        plan = crash_at({3: [1, 2], 7: [5]})
        assert plan.crashes_at(3) == {1, 2}
        assert plan.crashes_at(4) == set()
        assert plan.crashes_at(7) == {5}
        assert plan.total == 3
        assert plan.victims == frozenset({1, 2, 5})

    def test_rejects_double_crash(self):
        with pytest.raises(ConfigurationError):
            CrashPlan({0: {1}, 5: {1}})

    def test_has_pending(self):
        plan = crash_at({3: [1], 7: [5]})
        assert plan.has_pending(0)
        assert plan.has_pending(7)
        assert not plan.has_pending(8)

    def test_events_sorted(self):
        plan = crash_at({7: [5], 3: [1]})
        assert [t for t, _ in plan.events()] == [3, 7]


class TestGenerators:
    def test_random_crashes_counts_and_horizon(self):
        plan = random_crashes(20, count=6, horizon=10, seed=5)
        assert plan.total == 6
        assert all(0 <= t < 10 for t, _ in plan.events())

    def test_random_crashes_deterministic(self):
        a = random_crashes(20, 6, 10, seed=5)
        b = random_crashes(20, 6, 10, seed=5)
        assert a.events() == b.events()

    def test_random_crashes_seed_sensitivity(self):
        a = random_crashes(20, 6, 10, seed=5)
        b = random_crashes(20, 6, 10, seed=6)
        assert a.events() != b.events()

    def test_random_crashes_candidates_respected(self):
        plan = random_crashes(20, 3, 10, seed=1, candidates=[4, 5, 6, 7])
        assert plan.victims <= {4, 5, 6, 7}

    def test_random_crashes_too_many(self):
        with pytest.raises(ConfigurationError):
            random_crashes(5, count=6, horizon=10)

    def test_wave(self):
        plan = wave_crashes([1, 2, 3], at=4)
        assert plan.crashes_at(4) == {1, 2, 3}
        assert plan.total == 3

    def test_staggered_halving_total_and_epochs(self):
        plan = staggered_halving(32, f=12, epoch_length=50, seed=2)
        assert plan.total == 12
        times = [t for t, _ in plan.events()]
        assert all(t % 50 == 0 for t in times)
        # Wave sizes halve (6, 3, 1, 1, 1 pattern-ish): first is largest.
        sizes = [len(p) for _, p in plan.events()]
        assert sizes[0] == max(sizes)


class TestNextEventAt:
    def test_exact_next_crash_time(self):
        plan = crash_at({3: [0], 9: [1, 2], 15: [4]})
        assert plan.next_event_at(0) == 3
        assert plan.next_event_at(3) == 3
        assert plan.next_event_at(4) == 9
        assert plan.next_event_at(9) == 9
        assert plan.next_event_at(10) == 15
        assert plan.next_event_at(16) is None

    def test_empty_plan_has_no_events(self):
        assert no_crashes().next_event_at(0) is None

    def test_agrees_with_has_pending(self):
        plan = random_crashes(20, 6, 30, seed=7)
        for t in range(40):
            assert (plan.next_event_at(t) is not None) == plan.has_pending(t)
