"""Integration tests for the Canetti–Rabin framework over every transport."""

import pytest

from repro.consensus import run_consensus
from repro.spec.registry import TRANSPORTS

ALL_TRANSPORTS = sorted(TRANSPORTS)


class TestSafetyAndLiveness:
    @pytest.mark.parametrize("transport", ALL_TRANSPORTS)
    @pytest.mark.parametrize("seed", range(3))
    def test_split_inputs_crash_free(self, transport, seed):
        run = run_consensus(transport, n=16, f=7, seed=seed)
        assert run.completed, run.reason
        assert run.agreement
        assert run.validity
        assert len(run.decisions) == 16

    @pytest.mark.parametrize("transport", ALL_TRANSPORTS)
    @pytest.mark.parametrize("seed", range(3))
    def test_with_maximal_crashes(self, transport, seed):
        run = run_consensus(transport, n=16, f=7, seed=seed, crashes=7)
        assert run.completed, run.reason
        assert run.agreement
        assert run.validity

    @pytest.mark.parametrize("transport", ALL_TRANSPORTS)
    def test_under_delays_and_skew(self, transport):
        run = run_consensus(transport, n=16, f=7, d=3, delta=3, seed=2,
                            crashes=5)
        assert run.completed, run.reason
        assert run.agreement
        assert run.realized_d <= 3
        assert run.realized_delta <= 3


class TestDecisionLogic:
    @pytest.mark.parametrize("transport", ALL_TRANSPORTS)
    def test_unanimous_input_decides_that_value_in_round_one(self, transport):
        run = run_consensus(transport, n=12, f=5, seed=1, values=[1] * 12)
        assert run.completed
        assert set(run.decisions.values()) == {1}
        assert run.rounds_used == 1

    def test_unanimous_zero(self):
        run = run_consensus("ears", n=12, f=5, seed=1, values=[0] * 12)
        assert set(run.decisions.values()) == {0}

    def test_majority_input_usually_wins(self):
        # 3/4 of processes start with 1: the first estimate voting gives 1
        # an absolute majority in every view, so the decision must be 1.
        values = [1] * 12 + [0] * 4
        wins = 0
        for seed in range(5):
            run = run_consensus("ears", n=16, f=7, seed=seed, values=values)
            assert run.completed and run.agreement
            wins += set(run.decisions.values()) == {1}
        assert wins == 5

    def test_crashed_processes_do_not_block(self):
        from repro.adversary.crash_plans import wave_crashes

        run = run_consensus(
            "ears", n=16, f=7, seed=3,
            crashes=wave_crashes([0, 1, 2, 3, 4, 5, 6], at=2),
        )
        assert run.completed
        assert all(pid >= 7 or pid in run.decisions or True
                   for pid in range(16))
        assert run.agreement

    def test_rounds_used_small(self):
        # The shared coin makes expected rounds O(1); assert a loose cap.
        for seed in range(4):
            run = run_consensus("all-to-all", n=16, f=7, seed=seed)
            assert run.rounds_used <= 6


class TestComplexityShape:
    def test_cr_ears_beats_all_to_all_on_messages(self):
        """Table 2's point: gossip-based get-core cuts message complexity."""
        baseline = run_consensus("all-to-all", n=48, f=23, seed=1)
        ears = run_consensus("ears", n=48, f=23, seed=1)
        assert baseline.completed and ears.completed
        assert ears.messages < baseline.messages

    def test_message_kinds_include_transport_traffic(self):
        run = run_consensus("tears", n=16, f=7, seed=1)
        assert run.messages_by_kind.get("first-level", 0) > 0

    def test_deterministic_given_seed(self):
        a = run_consensus("sears", n=16, f=7, seed=5, crashes=4)
        b = run_consensus("sears", n=16, f=7, seed=5, crashes=4)
        assert a.messages == b.messages
        assert a.decision_time == b.decision_time
        assert a.decisions == b.decisions


class TestValidation:
    def test_rejects_f_at_half(self):
        from repro.sim.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_consensus("ears", n=16, f=8)

    def test_rejects_unknown_transport(self):
        from repro.sim.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_consensus("smoke-signals", n=8, f=3)

    def test_rejects_wrong_value_count(self):
        from repro.sim.errors import ConfigurationError

        with pytest.raises(ConfigurationError):
            run_consensus("ears", n=8, f=3, values=[0, 1])

    def test_rejects_none_initial_value(self):
        with pytest.raises(ValueError):
            from repro.consensus.canetti_rabin import CanettiRabinConsensus
            from repro.core.trivial import TrivialGossip

            CanettiRabinConsensus(0, 8, 3, None, TrivialGossip)
