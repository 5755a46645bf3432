"""Tests for execution accounting."""

import pytest

from repro.adversary.oblivious import ObliviousAdversary
from repro.sim.engine import Simulation
from repro.sim.message import Message
from repro.sim.metrics import NEVER_SCHEDULED, Metrics, trailing_gap

from ..plans import ExplicitSchedule
from .algos import RingSender


class TestSendAccounting:
    def test_counts_by_kind_and_sender(self):
        m = Metrics(n=4)
        m.record_send([Message(0, 1, None, "gossip")], now=3)
        m.record_send([Message(0, 2, None, "gossip")], now=4)
        m.record_send([Message(1, 0, None, "shutdown")], now=5)
        assert m.messages_sent == 3
        assert m.messages_by_kind["gossip"] == 2
        assert m.last_send_time == 5

    def test_bulk_count(self):
        m = Metrics(n=4)
        m.record_send([Message(2, 0, None, "spam")] * 10, now=1)
        assert m.messages_sent == 10
        assert m.messages_by_kind["spam"] == 10


class TestRealizedDelta:
    def test_gap_between_scheduled_steps(self):
        m = Metrics(n=2)
        m.record_scheduled(0, 0)
        m.record_scheduled(0, 5)
        assert m.realized_delta == 5

    def test_initial_lead_in_counts(self):
        m = Metrics(n=2)
        m.record_scheduled(0, 3)
        # First scheduled at t=3 means a window of 4 steps was needed.
        assert m.realized_delta == 4

    def test_crash_clears_schedule_tracking(self):
        m = Metrics(n=2)
        m.record_scheduled(0, 0)
        m.record_crash(0, 1)
        # A crashed process's later "gap" must not count; there is none.
        assert m.crashes == 1
        assert m.crash_times[0] == 1


class TestFinalize:
    def test_trailing_gap_folds_into_realized_delta(self):
        m = Metrics(n=2)
        m.record_scheduled(0, 0)
        m.record_scheduled(0, 2)
        m.record_scheduled(1, 0)
        assert m.realized_delta == 2
        # Pid 1 starved from t=0 until completion at t=10.
        m.finalize(10, alive={0, 1})
        assert m.realized_delta == 10

    def test_never_scheduled_counts_full_window(self):
        m = Metrics(n=2)
        m.record_scheduled(0, 0)
        m.finalize(7, alive={0, 1})
        # Pid 1 unscheduled through steps 0..6: a window of 7 steps with
        # no schedule forces delta >= 8, matching the lead-in convention.
        assert m.realized_delta == 8

    def test_crashed_pids_do_not_count(self):
        m = Metrics(n=2)
        m.record_scheduled(0, 4)
        m.record_scheduled(1, 0)
        m.record_crash(1, 1)
        m.finalize(20, alive={0})
        assert m.realized_delta == 20 - 4

    def test_idempotent_and_monotone_across_resumes(self):
        m = Metrics(n=1)
        m.record_scheduled(0, 1)
        m.finalize(5, alive={0})
        assert m.realized_delta == 4
        m.finalize(5, alive={0})
        assert m.realized_delta == 4
        # Resuming and finalizing later can only grow the fold.
        m.finalize(9, alive={0})
        assert m.realized_delta == 8


class TestTailGapRegression:
    """The realized-δ accounting bug: a process starved from its last
    scheduled step to the end of the run used to report only the gaps
    *between* its scheduled steps."""

    def test_tail_starvation_is_visible(self):
        table = [{0, 1}] + [{0}] * 60
        adversary = ObliviousAdversary(
            schedule=ExplicitSchedule(table, target_delta=50)
        )
        sim = Simulation(
            n=2, f=0, algorithms=[RingSender(3), RingSender(1)],
            adversary=adversary, monitor=None, seed=0,
        )
        result = sim.run(max_steps=50)
        # Pid 1 was scheduled once (t=0) and then starved for the whole
        # run; its messages stay undeliverable so the run hits the step
        # limit. Before the fix the run reported realized_delta == 1 (the
        # only gaps ever *observed* were pid 0's back-to-back steps and
        # the t=0 lead-ins); the 50-step tail starvation was invisible.
        assert not result.completed
        assert result.metrics["realized_delta"] == 50

    def test_trailing_gap_scalar_and_array_agree(self):
        # One fold, two callers: Metrics.finalize feeds plain ints, the
        # batch engine's columnar finalize feeds numpy arrays. The two
        # paths must compute the same numbers.
        assert trailing_gap(50, 0) == 50
        assert trailing_gap(50, NEVER_SCHEDULED) == 51
        np = pytest.importorskip("numpy")
        ends = np.array([50, 50, 7])
        lasts = np.array([0, NEVER_SCHEDULED, 7])
        folded = trailing_gap(ends, lasts)
        assert folded.tolist() == [
            trailing_gap(int(e), int(l)) for e, l in zip(ends, lasts)
        ]

    def test_batch_finalize_folds_tail_starvation(self):
        # The batch-engine twin of the regression above: stop the run
        # before the round-robin window wraps, so high-residue processes
        # were never scheduled at all. The columnar finalize must fold
        # their from-time-0 starvation (end + 1) into realized δ, exactly
        # as the scalar Metrics.finalize does via the shared trailing_gap.
        pytest.importorskip("numpy")
        from repro.spec.builder import execute
        from repro.spec.runspec import RunSpec

        spec = RunSpec(
            kind="gossip", algorithm="ears", n=16, d=2, delta=8,
            seed=0, max_steps=3,
        )
        batch = execute(spec.replace(engine="batch"))
        scalar = execute(spec.replace(engine="stepwise"))
        assert not batch.completed and not scalar.completed
        # end == 3, never-scheduled residues fold as end + 1 == 4.
        assert batch.realized_delta == scalar.realized_delta == 4


class TestRealizedD:
    def test_max_delay_tracked(self):
        m = Metrics(n=2)
        m.record_delivery(3, max_delay=2)
        m.record_delivery(1, max_delay=7)
        m.record_delivery(1, max_delay=1)
        assert m.realized_d == 7
        assert m.messages_delivered == 5


class TestSnapshot:
    def test_snapshot_round_trip(self):
        m = Metrics(n=3)
        m.record_send([Message(0, 1, None, "x")], now=1)
        m.record_scheduled(0, 0)
        snap = m.snapshot()
        assert snap["messages_sent"] == 1
        assert snap["messages_by_kind"] == {"x": 1}
        assert snap["n"] == 3
        # Snapshot must be detached from the live object.
        m.record_send([Message(0, 1, None, "x")], now=2)
        assert snap["messages_sent"] == 1
