"""Benchmark T1 (sync row): the synchronous comparators of Table 1.

Reproduces the "CK [9]" row — deterministic synchronous gossip in
O(polylog n) rounds and O(n polylog n) messages — via the expander-overlay
baseline, and the Karp et al. [19] single-rumor result the introduction
cites (O(log n) rounds, O(n log log n) transmissions). Both run on the
d = δ = 1 execution of the one engine, so a CK run's ``steps`` are rounds.
"""

from __future__ import annotations

import pytest

from repro._util import ceil_log2, ln
from repro.adversary.crash_plans import random_crashes
from repro.sync import run_ck_gossip, run_push_pull


@pytest.mark.parametrize("n", [64, 256])
def test_ck_gossip_polylog(once, n):
    result = once(run_ck_gossip, n, f=n // 4,
                  crashes=random_crashes(n, n // 4, 6, seed=1), seed=1)
    assert result.completed
    # Rounds O(log n), messages O(n log² n) with small constants.
    assert result.steps <= 4 * ceil_log2(n)
    assert result.messages <= 6 * n * ln(n) ** 2


def test_ck_rounds_scale_logarithmically(once):
    small = run_ck_gossip(32)
    large = once(run_ck_gossip, 512)
    assert large.completed
    # 16x the processes, well under 16x the rounds.
    assert large.steps <= 2.5 * small.steps


@pytest.mark.parametrize("n", [256, 1024])
def test_karp_push_pull(once, n):
    result = once(run_push_pull, n, seed=1)
    assert result.completed
    assert result.informed == n
    assert result.rounds <= 4 * ceil_log2(n)


def test_karp_transmissions_sublogarithmic_growth(once):
    small = run_push_pull(64, seed=1)
    large = once(run_push_pull, 4096, seed=1)
    per_small = small.transmissions / 64
    per_large = large.transmissions / 4096
    # Θ(n log n) would add +1 transmission/process per doubling; the
    # [19]-style counter keeps growth well below that.
    assert per_large - per_small <= 0.7 * (ceil_log2(4096) - ceil_log2(64))
