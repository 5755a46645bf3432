"""Tests for schedule plans and their delta guarantees."""

import copy
import pickle

import pytest

from repro.sim.scheduler import EveryStep, RoundRobinWindows, SchedulePlan

from ..plans import ExplicitSchedule, StaggeredWindows, SubsetEveryStep

ALIVE = frozenset(range(8))


def gaps(plan, pid, horizon, alive=ALIVE):
    """Gaps between consecutive scheduled steps of pid, plus the lead-in."""
    times = [t for t in range(horizon) if pid in plan.scheduled_at(t, alive)]
    assert times, f"pid {pid} never scheduled in {horizon} steps"
    result = [times[0] + 1]
    result += [b - a for a, b in zip(times, times[1:])]
    return result


class TestEveryStep:
    def test_everyone_every_step(self):
        plan = EveryStep()
        for t in range(5):
            assert plan.scheduled_at(t, ALIVE) == set(ALIVE)

    def test_target_delta_is_one(self):
        assert EveryStep().target_delta == 1


class TestRoundRobinWindows:
    def test_exactly_one_step_per_window(self):
        plan = RoundRobinWindows(4)
        for pid in ALIVE:
            for window in range(5):
                steps = [
                    t
                    for t in range(window * 4, (window + 1) * 4)
                    if pid in plan.scheduled_at(t, ALIVE)
                ]
                assert len(steps) == 1

    def test_gap_never_exceeds_target_delta(self):
        plan = RoundRobinWindows(4)
        for pid in ALIVE:
            assert max(gaps(plan, pid, 40)) <= plan.target_delta

    def test_delta_one_equals_every_step(self):
        plan = RoundRobinWindows(1)
        assert plan.scheduled_at(7, ALIVE) == set(ALIVE)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            RoundRobinWindows(0)


class TestStaggeredWindows:
    def test_gap_within_guarantee(self):
        plan = StaggeredWindows(3, seed=11)
        for pid in ALIVE:
            assert max(gaps(plan, pid, 60)) <= plan.target_delta

    def test_one_step_per_window(self):
        plan = StaggeredWindows(3, seed=11)
        for pid in ALIVE:
            for window in range(10):
                steps = [
                    t
                    for t in range(window * 3, (window + 1) * 3)
                    if pid in plan.scheduled_at(t, ALIVE)
                ]
                assert len(steps) == 1

    def test_deterministic_for_seed(self):
        a = StaggeredWindows(3, seed=5)
        b = StaggeredWindows(3, seed=5)
        for t in range(20):
            assert a.scheduled_at(t, ALIVE) == b.scheduled_at(t, ALIVE)

    def test_slots_vary_across_processes_or_windows(self):
        plan = StaggeredWindows(4, seed=1)
        schedules = {
            t: plan.scheduled_at(t, ALIVE) for t in range(16)
        }
        # Not all windows can be identical for a real stagger.
        window_patterns = {
            tuple(sorted(map(tuple, (schedules[w * 4 + o] for o in range(4)))))
            for w in range(4)
        }
        assert len(window_patterns) > 1


class TestExplicitSchedule:
    def test_follows_table_then_defaults(self):
        plan = ExplicitSchedule([{0}, {1, 2}, set()])
        assert plan.scheduled_at(0, ALIVE) == {0}
        assert plan.scheduled_at(1, ALIVE) == {1, 2}
        assert plan.scheduled_at(2, ALIVE) == set()
        assert plan.scheduled_at(3, ALIVE) == set(ALIVE)

    def test_intersects_alive(self):
        plan = ExplicitSchedule([{0, 5}])
        assert plan.scheduled_at(0, frozenset({5})) == {5}


class TestSubsetEveryStep:
    def test_only_subset_runs(self):
        plan = SubsetEveryStep({1, 3})
        assert plan.scheduled_at(0, ALIVE) == {1, 3}
        assert plan.scheduled_at(9, ALIVE) == {1, 3}

    def test_respects_alive(self):
        plan = SubsetEveryStep({1, 3})
        assert plan.scheduled_at(0, frozenset({3, 4})) == {3}


def brute_next_event(plan, t, alive, horizon=4000):
    """Reference implementation: scan for the next busy step."""
    for u in range(t, horizon):
        if plan.scheduled_at(u, alive) & alive:
            return u
    return None


NEXT_EVENT_PLANS = [
    EveryStep(),
    RoundRobinWindows(1),
    RoundRobinWindows(4),
    RoundRobinWindows(13),
    RoundRobinWindows(64),
    StaggeredWindows(1, seed=3),
    StaggeredWindows(5, seed=3),
    StaggeredWindows(16, seed=9),
    ExplicitSchedule([{0}, set(), set(), {1, 2}, set(), {7}]),
    ExplicitSchedule([set(), set()]),
    SubsetEveryStep({1, 3}),
    SubsetEveryStep({6}),
]


class TestNextEventAt:
    """next_event_at must be the exact first busy step — the leap engine's
    bit-identity rests on this property."""

    @pytest.mark.parametrize(
        "plan", NEXT_EVENT_PLANS, ids=lambda p: repr(type(p).__name__)
    )
    @pytest.mark.parametrize(
        "alive",
        [ALIVE, frozenset({5}), frozenset({2, 7}), frozenset({0, 3, 6})],
        ids=["all", "one", "two", "three"],
    )
    def test_matches_brute_force_scan(self, plan, alive):
        for t in range(0, 140):
            assert plan.next_event_at(t, alive) == brute_next_event(
                plan, t, alive
            ), f"divergence at t={t}"

    @pytest.mark.parametrize(
        "plan", NEXT_EVENT_PLANS, ids=lambda p: repr(type(p).__name__)
    )
    def test_empty_alive_means_no_event(self, plan):
        assert plan.next_event_at(17, frozenset()) is None

    def test_base_class_is_conservative(self):
        class Unknown(SchedulePlan):
            def scheduled_at(self, t, alive):
                return set()

        # A plan that does not implement the protocol must force stepwise
        # progress ("an event may happen right now").
        assert Unknown().next_event_at(42, ALIVE) == 42

    def test_round_robin_index_follows_the_live_set(self):
        # One plan, alternating live sets (what forks sharing a plan do):
        # the memoized residue index must answer for the set it is given.
        sets = [frozenset({0, 3, 6}), frozenset({3}), frozenset(), ALIVE]
        for period in (1, 2, 5, 8, 64):
            plan = RoundRobinWindows(period)
            for t in range(0, 3 * period + 2):
                for alive in sets:
                    assert plan.next_event_at(t, alive) == brute_next_event(
                        RoundRobinWindows(period), t, alive
                    )
                    assert plan.scheduled_at(t, alive) == {
                        pid for pid in alive if pid % period == t % period
                    }

    @pytest.mark.parametrize(
        "cloner",
        [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_round_robin_clones_answer_as_the_original(self, cloner):
        plan = RoundRobinWindows(5)
        assert plan.next_event_at(4, ALIVE) == 4
        assert plan._index[0] is ALIVE  # warmed
        dup = cloner(plan)
        assert dup.next_event_at(4, ALIVE) == 4
        assert dup.scheduled_at(9, ALIVE) == plan.scheduled_at(9, ALIVE)
        assert dup.next_event_at(4, frozenset({2})) == 7


class TestStaggeredWindowsCache:
    def test_cache_pruned_as_windows_advance(self):
        plan = StaggeredWindows(4, seed=2)
        for t in range(40 * 4):
            plan.scheduled_at(t, ALIVE)
        # Entries older than the previous window are evicted: at most the
        # previous + current window per pid survive a scheduled_at sweep
        # (next_event_at may additionally warm the following window).
        windows = {key[1] for key in plan._slot_cache}
        assert windows <= {38, 39}
        assert len(plan._slot_cache) <= 3 * len(ALIVE)

    def test_pruning_does_not_change_schedule(self):
        pruned = StaggeredWindows(6, seed=13)
        fresh = StaggeredWindows(6, seed=13)
        history = [pruned.scheduled_at(t, ALIVE) for t in range(200)]
        # Replay in reverse on a fresh plan: pure slots mean identical sets
        # regardless of cache state or query order.
        for t in reversed(range(200)):
            assert fresh.scheduled_at(t, ALIVE) == history[t]

    @pytest.mark.parametrize(
        "cloner",
        [copy.copy, copy.deepcopy, lambda p: pickle.loads(pickle.dumps(p))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_clones_exclude_cache_and_stay_deterministic(self, cloner):
        plan = StaggeredWindows(5, seed=7)
        baseline = [plan.scheduled_at(t, ALIVE) for t in range(50)]
        assert plan._slot_cache  # warmed
        dup = cloner(plan)
        assert dup._slot_cache == {}
        assert dup._cache_window == -1
        assert [dup.scheduled_at(t, ALIVE) for t in range(50)] == baseline
        # The original's cache is untouched by cloning.
        assert plan._slot_cache
