"""Tests for the empirical lemma-validation harness."""

import pytest

from repro.adversary.crash_plans import random_crashes
from repro.core.params import TearsParams
from repro.experiments.lemmas import (
    measure_ears_milestones,
    measure_tears_lemmas,
)


class TestEarsMilestones:
    @pytest.fixture(scope="class")
    def milestones(self):
        return measure_ears_milestones(n=64, f=16, d=1, delta=1, seed=1)

    def test_run_completes(self, milestones):
        assert milestones.completed

    def test_proof_order_of_milestones(self, milestones):
        """The stage sequence of the Section 3.2 analysis: gathering
        (Lemma 4), then shooting (Lemma 5), then the shut-down wave."""
        m = milestones
        assert m.gathering is not None
        assert m.gathering <= m.shooting <= m.first_sleep <= m.all_asleep

    def test_exchange_no_later_than_gathering(self, milestones):
        # The tagged rumor is one of the rumors gathering waits for.
        assert milestones.exchange_time <= milestones.gathering

    def test_milestones_scale_with_latency(self):
        fast = measure_ears_milestones(n=48, f=12, d=1, delta=1, seed=2)
        slow = measure_ears_milestones(n=48, f=12, d=4, delta=4, seed=2)
        assert slow.completed
        # Each stage is Θ(…·(d+δ)): 4x the latency, roughly 4x the span
        # (wide tolerance: 2x-8x).
        assert 2 * fast.all_asleep <= slow.all_asleep <= 8 * fast.all_asleep

    def test_milestones_grow_slowly_with_n(self):
        small = measure_ears_milestones(n=32, f=8, seed=3)
        large = measure_ears_milestones(n=256, f=64, seed=3)
        assert large.completed
        # 8x the processes: polylog growth, far below linear.
        assert large.all_asleep <= 4 * small.all_asleep

    def test_shutdown_wave_short(self, milestones):
        # All of A enters the shut-down phase within O(log n) exchanged
        # steps of the first sleeper (the Theorem 6 argument).
        wave = milestones.all_asleep - milestones.first_sleep
        assert wave <= milestones.all_asleep / 2 + 20

    def test_survives_crashes(self):
        m = measure_ears_milestones(
            n=64, f=16, seed=4,
            crashes=random_crashes(64, 16, 10, seed=4),
        )
        assert m.completed


class TestTearsLemmas:
    @pytest.fixture(scope="class")
    def report(self):
        return measure_tears_lemmas(
            n=128, seed=1, crashes=random_crashes(128, 63, 3, seed=1)
        )

    def test_lemma8_batch_sizes(self, report):
        assert report.lemma8_violations == 0
        assert report.send_batch_sizes  # something was sent

    def test_lemma9_well_distributed_floor(self, report):
        assert report.well_distributed >= report.lemma9_floor

    def test_lemma10_delivery(self, report):
        assert report.lemma10_missing == 0

    def test_lemma11_majority(self, report):
        assert report.completed
        assert report.min_rumors >= report.majority_needed

    def test_lemmas_hold_with_scaled_constants(self):
        # The non-degenerate regime: Π-sets are strict subsets of [n].
        report = measure_tears_lemmas(
            n=256, seed=2, params=TearsParams.scaled(0.25),
            crashes=random_crashes(256, 127, 3, seed=2),
        )
        assert report.completed
        assert report.a < 255  # genuinely sub-full fanout
        assert report.lemma8_violations == 0
        assert report.lemma10_missing == 0
        assert report.min_rumors >= report.majority_needed

    @pytest.mark.parametrize("seed", range(3))
    def test_lemmas_across_seeds(self, seed):
        report = measure_tears_lemmas(
            n=96, seed=seed, crashes=random_crashes(96, 47, 3, seed=seed)
        )
        assert report.completed
        assert report.lemma8_violations == 0
        assert report.min_rumors >= report.majority_needed
