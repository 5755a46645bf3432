"""Tests for exponent fitting and cost-of-asynchrony reports."""

import pytest

from repro.analysis.coa import coa_report
from repro.analysis.fitting import fit_power_law


class TestFitValidation:
    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0], [2.0])

    def test_needs_positive_data(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0], [0.0, 1.0])

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            fit_power_law([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_identical_x_rejected(self):
        with pytest.raises(ValueError):
            fit_power_law([2.0, 2.0], [1.0, 3.0])


class TestFitBehaviour:
    def test_noise_tolerance(self):
        xs = [10.0, 20.0, 40.0, 80.0, 160.0]
        ys = [x ** 1.5 * noise for x, noise in zip(xs, [1.05, 0.97, 1.02,
                                                        0.99, 1.01])]
        fit = fit_power_law(xs, ys)
        assert abs(fit.exponent - 1.5) < 0.05

    def test_predict(self):
        fit = fit_power_law([2.0, 4.0, 8.0], [4.0, 16.0, 64.0])
        assert fit.predict(16.0) == pytest.approx(256.0, rel=1e-6)


class TestCoaReport:
    def test_ratios(self):
        report = coa_report("x", n=64, f=16, asynch_time=160,
                            asynch_messages=5000, synch_time=10,
                            synch_messages=5000)
        assert report.time_ratio == 16.0
        assert report.message_ratio == 1.0
