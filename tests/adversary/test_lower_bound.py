"""Tests for the executable Theorem 1 adversary."""

import pytest

from repro.adversary.lower_bound import LowerBoundExperiment, run_lower_bound
from repro.core.ears import Ears
from repro.core.sparse import SparseGossip
from repro.core.trivial import TrivialGossip
from repro.core.uniform import UniformEpidemicGossip
from repro.sim.errors import ConfigurationError


def maker(cls, **kw):
    return lambda pid, n, f: cls(pid=pid, n=n, f=f, **kw)


class TestConstruction:
    def test_rejects_tiny_f(self):
        with pytest.raises(ConfigurationError):
            LowerBoundExperiment(maker(TrivialGossip), n=64, f=4)

    def test_f_capped_at_quarter_n(self):
        exp = LowerBoundExperiment(maker(TrivialGossip), n=64, f=60)
        assert exp.f == 16
        assert len(exp.s2) == 8
        assert len(exp.s1) == 56

    def test_partition_covers_population(self):
        exp = LowerBoundExperiment(maker(TrivialGossip), n=64, f=16)
        assert sorted(exp.s1 + exp.s2) == list(range(64))

    # Unchecked, each divides by zero (samples, promiscuity_factor 0) or
    # reports a case never played: a blow-up against a negative bound, a
    # non-quiescent S1 that never stepped (phase1_cap 0).
    @pytest.mark.parametrize("knob, value, rule", [
        ("samples", 0, ">= 1"),
        ("promiscuity_factor", 0, "> 0"),
        ("promiscuity_factor", -1.0, "> 0"),
        ("phase1_cap", 0, ">= 1"),
    ])
    def test_out_of_range_knob_is_refused_by_name(self, knob, value, rule):
        with pytest.raises(ConfigurationError,
                           match=f"{knob} must be {rule}, got {value}"):
            run_lower_bound(maker(TrivialGossip), n=32, f=8, **{knob: value})


class TestCaseSelection:
    def test_trivial_lands_in_message_blowup(self):
        report = run_lower_bound(maker(TrivialGossip), n=64, f=16, seed=1)
        assert report.case == "message-blowup"
        assert report.crashes_used == 0
        # All of S2 broadcasts n-1 messages: far beyond the f²/128 target.
        assert report.measured_messages >= report.message_bound

    def test_ears_pays_linear_time(self):
        # EARS takes ~log² n · (n/(n−f)) steps to quiesce even among S1;
        # at n=64, f_eff=16 that exceeds f, which is exactly the Ω(f(d+δ))
        # branch with d = δ = 1.
        report = run_lower_bound(maker(Ears), n=64, f=16, seed=1)
        assert report.case == "slow-quiesce"
        assert report.measured_time > report.f
        assert report.crashes_used == report.f // 2

    def test_uniform_never_quiesces(self):
        report = run_lower_bound(
            maker(UniformEpidemicGossip), n=64, f=16, seed=1, phase1_cap=400
        )
        assert report.case == "non-quiescent"
        assert report.measured_time == 400


class TestIsolationCase:
    @pytest.fixture(scope="class")
    def report(self):
        # Sparse cascading gossip quiesces fast and sends little: the
        # adversary's Case 2. promiscuity_factor=8 moves the threshold so
        # the regime is reachable at test-sized n.
        return run_lower_bound(
            maker(SparseGossip, budget=1),
            n=128, f=32, seed=3, samples=4, promiscuity_factor=8.0,
        )

    def test_case_is_isolation(self, report):
        assert report.case == "isolation"
        assert report.nonpromiscuous

    def test_pair_is_inside_s2(self, report):
        p, q = report.isolation_pair
        exp_s2 = set(range(128 - 16, 128))
        assert {p, q} <= exp_s2

    def test_crash_budget_respected(self, report):
        assert report.crashes_used <= report.requested_f

    def test_isolated_pair_never_exchanged_rumors(self, report):
        if report.isolation_success:
            assert report.details["cross_messages"] == 0
            assert report.measured_time == 2 * (report.f // 2)
            assert report.measured_time >= report.time_bound
        else:  # constant-probability failure is legitimate: no time forced
            assert report.measured_time == 0

    def test_succeeds_for_most_seeds(self):
        # The proof guarantees success with probability >= 1/8; empirically
        # for sparse gossip it is nearly certain. Require >= 2 of 4 seeds.
        wins = 0
        for seed in range(4):
            report = run_lower_bound(
                maker(SparseGossip, budget=1),
                n=128, f=32, seed=seed, samples=3, promiscuity_factor=8.0,
            )
            wins += bool(report.case == "isolation"
                         and report.isolation_success)
        assert wins >= 2


class TestPhaseBEstimates:
    def test_expected_sends_recorded_for_all_s2(self):
        report = run_lower_bound(maker(TrivialGossip), n=64, f=16, seed=1)
        assert set(report.expected_sends) == set(range(56, 64))
        # Trivial broadcasts to everyone in its first isolated step.
        for value in report.expected_sends.values():
            assert value == pytest.approx(63.0)
