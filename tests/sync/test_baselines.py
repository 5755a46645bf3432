"""Tests for the synchronous baselines: CK-style gossip and Karp push-pull."""

import pytest

from repro._util import ceil_log2
from repro.adversary.crash_plans import crash_at, random_crashes
from repro.sync import (
    age_limit,
    overlay_diameter_bound,
    run_ck_gossip,
    run_push_pull,
    skip_graph_neighbors,
)

# Both baselines as they ran on the lock-step round engine that preceded
# the d = δ = 1 execution of Simulation; they must hold bit for bit.
# CK key: (n, f, random_crashes(n, f, 6, seed) seed, or None for no
# crashes). Value: (completed, rounds, completion_time, messages,
# messages_by_kind, messages_dropped).
CK_PINS = {
    (16, 0, None): (True, 9, 9, 896, {"ck": 896}, 0),
    (64, 0, None): (True, 12, 12, 7744, {"ck": 7744}, 0),
    (256, 0, None): (True, 15, 15, 53760, {"ck": 53760}, 0),
    (96, 24, 0): (True, 14, 14, 12060, {"ck": 12060}, 2658),
    (96, 24, 1): (True, 14, 14, 12060, {"ck": 12060}, 2448),
    (96, 24, 2): (True, 14, 14, 12132, {"ck": 12132}, 2453),
    (128, 64, 0): (True, 14, 14, 13286, {"ck": 13286}, 5106),
    (128, 64, 1): (True, 14, 14, 12779, {"ck": 12779}, 5278),
}

# Karp key: (n, seed, source 0 crashes at round 8). Value: the CK fields,
# then the number of informed live processes.
KARP_PINS = {
    (64, 1, False): (True, 17, 17, 1642, {
        "ack-known": 640, "pull-reply": 68, "pull-req": 264, "push": 670,
    }, 0, 64),
    (256, 1, False): (True, 22, 22, 7559, {
        "ack-known": 2816, "pull-reply": 264, "pull-req": 1521,
        "push": 2958,
    }, 0, 256),
    (1024, 1, False): (True, 23, 23, 33166, {
        "ack-known": 12288, "pull-reply": 1082, "pull-req": 6935,
        "push": 12861,
    }, 0, 1024),
    (4096, 1, False): (True, 26, 26, 146734, {
        "ack-known": 53248, "pull-reply": 4371, "pull-req": 33650,
        "push": 55465,
    }, 0, 4096),
    (64, 2, True): (True, 18, 18, 1636, {
        "ack-known": 635, "pull-reply": 69, "pull-req": 253, "push": 679,
    }, 8, 63),
}


@pytest.mark.parametrize("case", list(CK_PINS), ids=str)
def test_ck_matches_the_round_engine_pins(case):
    n, f, seed = case
    crashes = random_crashes(n, f, 6, seed=seed) if f else None
    result = run_ck_gossip(n, f=f, crashes=crashes, seed=seed or 0)
    metrics = result.metrics
    assert (result.completed, result.steps, result.completion_time,
            result.messages, metrics["messages_by_kind"],
            metrics["messages_dropped"]) == CK_PINS[case]


@pytest.mark.parametrize("case", list(KARP_PINS), ids=str)
def test_karp_matches_the_round_engine_pins(case):
    n, seed, source_crashes = case
    crashes = crash_at({8: [0]}) if source_crashes else None
    result = run_push_pull(n, seed=seed, crashes=crashes)
    metrics = result.metrics
    assert (result.completed, result.rounds, metrics["completion_time"],
            result.total_messages, metrics["messages_by_kind"],
            metrics["messages_dropped"], result.informed) == KARP_PINS[case]


class TestSkipOverlay:
    def test_degree_logarithmic(self):
        n = 256
        neighbors = skip_graph_neighbors(n)
        for peers in neighbors.values():
            assert len(peers) <= 2 * (ceil_log2(n) + 1)

    def test_symmetric(self):
        neighbors = skip_graph_neighbors(33)
        for i, peers in neighbors.items():
            for j in peers:
                assert i in neighbors[j]

    def test_connected_within_diameter(self):
        n = 64
        neighbors = skip_graph_neighbors(n)
        # BFS from 0 must reach everyone within the diameter bound.
        frontier, seen, hops = {0}, {0}, 0
        while len(seen) < n:
            frontier = {
                q for p in frontier for q in neighbors[p]
            } - seen
            seen |= frontier
            hops += 1
            assert hops <= overlay_diameter_bound(n) + 1

    def test_tiny_n(self):
        assert skip_graph_neighbors(1) == {0: []}
        assert skip_graph_neighbors(2) == {0: [1], 1: [0]}


class TestCkGossip:
    @pytest.mark.parametrize("n", [8, 32, 100])
    def test_completes_failure_free(self, n):
        result = run_ck_gossip(n)
        assert result.completed
        assert result.steps <= 4 * (ceil_log2(n) + 2)

    def test_polylog_rounds_scaling(self):
        small = run_ck_gossip(16)
        large = run_ck_gossip(256)
        # Rounds grow like log n: 16x population, < 3x rounds.
        assert large.steps <= 3 * small.steps

    def test_n_polylog_messages(self):
        n = 128
        result = run_ck_gossip(n)
        assert result.messages <= n * (2 * ceil_log2(n) + 2) * result.steps

    def test_tolerates_random_crashes(self):
        n, f = 64, 21
        result = run_ck_gossip(
            n, f=f, crashes=random_crashes(n, f, 6, seed=4)
        )
        assert result.completed


class TestKarpPushPull:
    @pytest.mark.parametrize("seed", range(3))
    def test_everyone_informed(self, seed):
        result = run_push_pull(128, seed=seed)
        assert result.completed
        assert result.informed == 128

    def test_logarithmic_rounds(self):
        result = run_push_pull(256, seed=1)
        assert result.rounds <= 6 * ceil_log2(256)

    def test_transmissions_grow_sublogarithmically(self):
        # [19]: O(n log log n) transmissions. At simulatable n the constants
        # hide the absolute gap to n·log n, but the *growth rate* of
        # transmissions-per-process must be well below the +1-per-doubling
        # a Θ(n log n) protocol would show.
        small = run_push_pull(64, seed=1)
        large = run_push_pull(4096, seed=1)
        per_small = small.transmissions / 64
        per_large = large.transmissions / 4096
        log_gap = ceil_log2(4096) - ceil_log2(64)  # 6 doublings
        assert per_large - per_small <= 0.7 * log_gap
        assert large.transmissions <= 2 * 4096 * ceil_log2(4096)

    def test_age_limit_loglog(self):
        assert age_limit(2 ** 16) <= 13
        assert age_limit(2 ** 16) > age_limit(16) - 1

    def test_survives_source_crash_after_spread(self):
        result = run_push_pull(64, seed=2, crashes=crash_at({8: [0]}))
        assert result.informed >= 63
