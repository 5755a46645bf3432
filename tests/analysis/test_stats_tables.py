"""Tests for statistics helpers and table rendering."""

import math

import pytest

from repro.analysis.stats import (
    success_rate,
    summarize,
    summarize_completed,
)
from repro.analysis.tables import format_cell, render_markdown, render_table


class TestSummarize:
    def test_basic(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == 2.0
        assert s.count == 3
        assert s.minimum == 1.0
        assert s.maximum == 3.0
        assert s.ci95 > 0

    def test_singleton(self):
        s = summarize([5.0])
        assert s.mean == 5.0
        assert s.stdev == 0.0
        assert s.ci95 == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestSummarizeCompleted:
    @staticmethod
    def record(completed, time=None, messages=None, rounds=None):
        return {"metrics": {"completed": completed, "time": time,
                            "messages": messages, "rounds": rounds}}

    def test_all_completed(self):
        records = [self.record(True, 10, 100, 1),
                   self.record(True, 20, 300, 3)]
        rate, time, messages, rounds = summarize_completed(
            records, ("time", "messages", "rounds"))
        assert rate == 1.0
        assert (time, messages, rounds) == (
            summarize([10.0, 20.0]), summarize([100.0, 300.0]),
            summarize([1.0, 3.0]))

    def test_none_completed_is_nan_at_rate_zero(self):
        rate, time, messages = summarize_completed(
            [self.record(False), self.record(False, 99, 9)])
        assert rate == 0.0
        assert math.isnan(time.mean) and math.isnan(messages.mean)
        assert time.count == 1  # the NaN placeholder, as the tables print

    def test_a_failed_trial_is_one_more_not_completed_row(self):
        # A trial that hit its step limit: counted in the rate, and its
        # partial figures stay out of the summaries.
        failed = self.record(False, 999, 99999)
        rate, time, messages = summarize_completed(
            [self.record(True, 10, 100), failed, self.record(True, 30, 200)])
        assert rate == pytest.approx(2 / 3)
        assert time == summarize([10.0, 30.0])
        assert messages == summarize([100.0, 200.0])


class TestRates:
    def test_success_rate(self):
        assert success_rate([True, False, True, True]) == 0.75


class TestTables:
    def test_format_cell(self):
        assert format_cell(3) == "3"
        assert format_cell(1234.5) == "1.23e+03"
        assert format_cell(2.5) == "2.50"
        assert format_cell("x") == "x"
        assert format_cell(0.0) == "0"

    def test_render_table_alignment(self):
        out = render_table(["a", "bbbb"], [[1, 2], [333, 4]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert all(len(line) == len(lines[0]) for line in lines[1:])

    def test_render_markdown(self):
        out = render_markdown(["x", "y"], [[1, 2]])
        assert out.splitlines()[1] == "|---|---|"
        assert "| 1 | 2 |" in out
