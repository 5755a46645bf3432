"""Tests for dissemination-curve extraction."""

import pytest

from repro.adversary.crash_plans import wave_crashes
from repro.core.ears import Ears
from repro.core.sears import Sears
from repro.core.uniform import UniformEpidemicGossip

from ..conftest import EXAMPLES, import_benchmark

# The curve code lives in the example that plots it.
curves = import_benchmark("epidemic_curves", EXAMPLES)
DisseminationCurve = curves.DisseminationCurve
curves_over_latency = curves.curves_over_latency
measure_dissemination = curves.measure_dissemination
render_curve = curves.render_curve


class TestCurveExtraction:
    def test_monotone_s_curve_to_full_population(self):
        curve = measure_dissemination(UniformEpidemicGossip, n=64, seed=1)
        assert curve.is_monotone()
        assert curve.holders[0] >= 1
        assert curve.holders[-1] == 64

    def test_exponential_phase_doubling_time(self):
        curve = measure_dissemination(UniformEpidemicGossip, n=256, seed=2)
        doubling = curve.doubling_time()
        # Fanout-1 push epidemic at d = δ = 1: roughly one doubling per
        # 1-2 steps during the exponential phase.
        assert doubling is not None
        assert 0.5 <= doubling <= 3.0

    def test_doubling_time_scales_with_latency(self):
        curves = curves_over_latency(Ears, n=64,
                                     d_delta_pairs=((1, 1), (4, 4)), seed=1)
        fast = curves[(1, 1)].doubling_time()
        slow = curves[(4, 4)].doubling_time()
        assert slow >= 2 * fast

    def test_full_spread_time_scales_with_latency(self):
        curves = curves_over_latency(Ears, n=64,
                                     d_delta_pairs=((1, 1), (4, 4)), seed=1)
        assert curves[(4, 4)].time_to_fraction(1.0) >= \
            2 * curves[(1, 1)].time_to_fraction(1.0)

    def test_spamming_collapses_generations(self):
        epidemic = measure_dissemination(Ears, n=96, seed=3)
        spam = measure_dissemination(Sears, n=96, seed=3)
        assert spam.time_to_fraction(1.0) < epidemic.time_to_fraction(1.0)

    def test_crashed_tagged_rumor_stalls_curve(self):
        # The rumor's originator crashes immediately: nobody ever learns it.
        curve = measure_dissemination(
            UniformEpidemicGossip, n=16, f=1, seed=1, tagged=3,
            crashes=wave_crashes([3], at=0), max_steps=300,
        )
        assert curve.holders[-1] == 0
        assert curve.time_to_fraction(0.5) is None


class TestCurveHelpers:
    def test_time_to_fraction(self):
        curve = DisseminationCurve(n=8, tagged=0, times=[1, 2, 3, 4],
                                   holders=[1, 3, 6, 8])
        assert curve.time_to_fraction(0.5) == 3
        assert curve.time_to_fraction(1.0) == 4
        assert curve.fraction() == [1 / 8, 3 / 8, 6 / 8, 1.0]

    def test_doubling_time_needs_enough_marks(self):
        curve = DisseminationCurve(n=8, tagged=0, times=[1], holders=[8])
        assert curve.doubling_time() is None

    def test_render_curve_shape(self):
        curve = measure_dissemination(UniformEpidemicGossip, n=32, seed=1)
        art = render_curve(curve, width=40, height=8)
        lines = art.splitlines()
        assert lines[0].startswith("1.0 |")
        assert "*" in art
        assert len(lines) == 10

    def test_render_empty(self):
        assert "empty" in render_curve(
            DisseminationCurve(n=4, tagged=0, times=[], holders=[])
        )
