"""Tests for the paper's closed-form bound shapes."""

import math

import pytest

from repro.analysis import bounds


class TestTable1Shapes:
    def test_trivial(self):
        assert bounds.trivial_messages(10) == 90
        assert bounds.trivial_time(3, 2) == 5

    def test_ears_failure_scaling(self):
        # The n/(n-f) factor: f = 3n/4 quadruples time vs f = 0.
        base = bounds.ears_time(64, 0, 1, 1)
        assert bounds.ears_time(64, 48, 1, 1) == pytest.approx(4 * base)

    def test_ears_messages_linear_in_latency(self):
        assert bounds.ears_messages(64, 16, 4, 4) == pytest.approx(
            4 * bounds.ears_messages(64, 16, 1, 1)
        )

    def test_sears_time_constant_in_n_at_fixed_fraction(self):
        # f = n/2 ⇒ n/(ε(n−f)) = 2/ε, independent of n.
        small = bounds.sears_time(64, 32, 0.5, 1, 1)
        large = bounds.sears_time(1024, 512, 0.5, 1, 1)
        assert small == pytest.approx(large)

    def test_tears_messages_independent_of_latency(self):
        assert bounds.tears_messages(256) == pytest.approx(
            256 ** 1.75 * math.log(256) ** 2
        )

    def test_tears_beats_trivial_asymptotically(self):
        # Crossover is astronomical; verify the ratio trend is downward.
        ratios = [
            bounds.tears_messages(n) / bounds.trivial_messages(n)
            for n in (2 ** 20, 2 ** 30, 2 ** 40, 2 ** 50)
        ]
        assert ratios == sorted(ratios, reverse=True)
        assert ratios[-1] < 1  # sub-quadratic wins by n = 2^50


class TestTable2Shapes:
    def test_cr_baseline(self):
        assert bounds.cr_messages(24) == 576
        assert bounds.cr_time(1, 1) == 2

    def test_cr_tears_subquadratic(self):
        n = 2 ** 60
        assert bounds.cr_tears_messages(n) < bounds.cr_messages(n)

    def test_cr_sears_eps_tradeoff(self):
        # Smaller ε: slower but fewer messages.
        assert bounds.cr_sears_time(0.25, 1, 1) > bounds.cr_sears_time(
            0.75, 1, 1)
        n = 2 ** 40
        assert bounds.cr_sears_messages(n, 0.25, 1, 1) < \
            bounds.cr_sears_messages(n, 0.75, 1, 1)
