"""Tests for the experiment drivers (small configurations)."""

from repro.experiments import (
    format_scaling,
    format_table1,
    format_table2,
    format_theorem1,
    ordering_is_correct,
    run_message_scaling,
    run_table1,
    run_table2,
    run_theorem1,
    run_time_vs_latency,
)


class TestTable1Driver:
    def test_rows_and_completion(self):
        rows = run_table1(n=24, seeds=range(2))
        names = [r.algorithm for r in rows]
        assert names == ["ck-sync", "trivial", "ears", "sears", "tears"]
        assert all(r.completion_rate == 1.0 for r in rows)

    def test_trivial_beats_bound_shape(self):
        rows = run_table1(n=24, seeds=range(2), algorithms=("trivial",),
                          include_sync=False)
        row = rows[0]
        assert row.messages.mean <= row.bound_messages

    def test_format(self):
        text = format_table1(run_table1(n=16, seeds=range(1)))
        assert "Table 1" in text
        assert "ears" in text


class TestTable2Driver:
    def test_all_rows_complete_and_safe(self):
        rows = run_table2(n=16, seeds=range(2))
        assert [r.protocol for r in rows] == [
            "CR (all-to-all)", "CR-ears", "CR-sears", "CR-tears"
        ]
        for row in rows:
            assert row.completion_rate == 1.0
            assert row.agreement_rate == 1.0

    def test_cr_ears_messages_below_baseline_at_scale(self):
        rows = run_table2(n=48, seeds=range(1),
                          transports=("all-to-all", "ears"))
        baseline, ears = rows
        assert ears.messages.mean < baseline.messages.mean

    def test_format(self):
        assert "Table 2" in format_table2(run_table2(n=12, seeds=range(1)))


class TestTheorem1Driver:
    def test_portfolio_cases(self):
        rows = run_theorem1(n=64, f=16, seeds=range(1),
                            algorithms=("trivial", "ears", "uniform"),
                            phase1_cap=600)
        by_name = {r.algorithm: r for r in rows}
        assert by_name["trivial"].dominant_case == "message-blowup"
        assert by_name["ears"].dominant_case == "slow-quiesce"
        assert by_name["uniform"].dominant_case == "non-quiescent"
        for row in rows:
            assert row.bound_satisfied

    def test_format(self):
        rows = run_theorem1(n=64, f=16, seeds=range(1),
                            algorithms=("trivial",))
        assert "Theorem 1" in format_theorem1(rows)


class TestScalingDriver:
    def test_ordering_and_fit_quality(self):
        rows = run_message_scaling(ns=[16, 32, 64, 128], seeds=range(2))
        assert ordering_is_correct(rows)
        for row in rows:
            assert row.raw_fit.r_squared > 0.97

    def test_fig_scale_m_message_means_are_pinned(self):
        """FIG-SCALE-M (ε = 1/4, scaled TEARS) as numbers: the sweep runs
        its SearsParams / TearsParams knobs as spec data now, and must
        measure what the parameter objects measured (captured at
        68c0b95)."""
        rows = run_message_scaling(ns=[16, 32, 64], seeds=range(2),
                                   crash=True)
        assert {row.algorithm: row.messages for row in rows} == {
            "trivial": [240.0, 992.0, 4000.5],
            "ears": [293.0, 710.0, 1755.5],
            "sears": [439.5, 1458.0, 3940.5],
            "tears": [326.0, 1209.5, 4069.5],
        }

    def test_time_vs_latency_monotone(self):
        points = run_time_vs_latency("trivial", n=24,
                                     d_delta_pairs=((1, 1), (4, 4)),
                                     seeds=range(2))
        assert points[0].time.mean < points[1].time.mean

    def test_format(self):
        rows = run_message_scaling(ns=[16, 32], seeds=range(1))
        assert "scaling" in format_scaling(rows)
