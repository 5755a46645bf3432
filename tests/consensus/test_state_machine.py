"""Unit tests for the Canetti–Rabin per-process state machine."""

import pytest

from repro.consensus.canetti_rabin import CanettiRabinConsensus
from repro.consensus.values import (
    BOTTOM,
    Envelope,
    VOTING_COIN,
    VOTING_ESTIMATE,
    VOTING_PREFERENCE,
)
from repro.core.trivial import TrivialGossip
from repro.sim.message import Message
from repro.sim.process import Context
from repro.sim.rng import derive_rng

N, F = 8, 3


def make_proc(pid=0, value=1):
    proc = CanettiRabinConsensus(pid, N, F, value, TrivialGossip)
    ctx = Context(pid, N, F, derive_rng(0, "t", pid))
    return proc, ctx


def votes(value_by_pid):
    return dict(value_by_pid)


class TestFlattenView:
    def test_stage_zero_is_identity(self):
        proc, _ = make_proc()
        view = proc._flatten_view(0, {0: 1, 1: 0})
        assert view == {0: 1, 1: 0}

    def test_later_stages_union_subviews(self):
        proc, _ = make_proc()
        collected = {0: {0: 1, 1: 0}, 2: {2: 1, 1: 0}}
        assert proc._flatten_view(1, collected) == {0: 1, 1: 0, 2: 1}


class TestVotingLogic:
    def test_stage_completion_advances_stage(self):
        proc, _ = make_proc()
        assert proc.instance == (1, VOTING_ESTIMATE, 0)
        proc._complete_instance({p: 1 for p in range(5)})
        assert proc.instance == (1, VOTING_ESTIMATE, 1)
        assert proc.history[(1, VOTING_ESTIMATE, 0)] == {
            p: 1 for p in range(5)
        }

    def _to_voting_end(self, proc, voting, outcome):
        """Complete all three stages of a voting with the same view."""
        rnd = proc.instance[0]
        for stage in range(3):
            assert proc.instance == (rnd, voting, stage)
            proc._complete_instance(outcome)
            if proc.decided is not None:
                return

    def test_unanimous_estimate_decides(self):
        proc, _ = make_proc(value=1)
        self._to_voting_end(proc, VOTING_ESTIMATE, votes({p: 1 for p in
                                                          range(5)}))
        assert proc.decided == 1
        assert proc.decided_round == 1

    def test_majority_estimate_sets_preference(self):
        proc, _ = make_proc()
        view = votes({0: 1, 1: 1, 2: 1, 3: 1, 4: 1, 5: 0})  # 5 of 8 => maj
        self._to_voting_end(proc, VOTING_ESTIMATE, view)
        assert proc.decided is None
        assert proc.preference == 1
        assert proc.instance == (1, VOTING_PREFERENCE, 0)

    def test_no_majority_prefers_bottom(self):
        proc, _ = make_proc()
        view = votes({0: 1, 1: 1, 2: 0, 3: 0, 4: 1})  # 3 of 8: no majority
        self._to_voting_end(proc, VOTING_ESTIMATE, view)
        assert proc.preference is BOTTOM

    def test_preference_seen_fixes_estimate_and_skips_coin_value(self):
        proc, _ = make_proc(value=0)
        self._to_voting_end(proc, VOTING_ESTIMATE,
                            votes({p: p % 2 for p in range(8)}))
        assert proc.preference is BOTTOM
        view = votes({0: 1, 1: BOTTOM, 2: BOTTOM, 3: BOTTOM, 4: BOTTOM})
        self._to_voting_end(proc, VOTING_PREFERENCE, view)
        assert proc.estimate == 1
        assert not proc._use_coin
        assert proc.instance == (1, VOTING_COIN, 0)
        # Coin voting still runs (participation), but its value is ignored.
        self._to_voting_end(proc, VOTING_COIN, votes({p: 0 for p in
                                                      range(5)}))
        assert proc.estimate == 1
        assert proc.instance == (2, VOTING_ESTIMATE, 0)

    def test_all_bottom_preferences_use_coin(self):
        proc, _ = make_proc(value=0)
        self._to_voting_end(proc, VOTING_ESTIMATE,
                            votes({p: p % 2 for p in range(8)}))
        self._to_voting_end(proc, VOTING_PREFERENCE,
                            votes({p: BOTTOM for p in range(5)}))
        assert proc._use_coin
        self._to_voting_end(proc, VOTING_COIN,
                            votes({p: 1 for p in range(5)}))
        assert proc.estimate == 1  # combine: all ones -> 1
        proc2, _ = make_proc(value=0)
        self._to_voting_end(proc2, VOTING_ESTIMATE,
                            votes({p: p % 2 for p in range(8)}))
        self._to_voting_end(proc2, VOTING_PREFERENCE,
                            votes({p: BOTTOM for p in range(5)}))
        self._to_voting_end(proc2, VOTING_COIN,
                            votes({0: 1, 1: 0, 2: 1, 3: 1, 4: 1}))
        assert proc2.estimate == 0  # any zero -> 0


class TestHistoryCatchUp:
    def test_fast_forward_through_sender_history(self):
        proc, _ = make_proc(value=0)
        # Sender already finished round 1 voting 1 (split view => pref ⊥).
        split = votes({p: p % 2 for p in range(8)})
        history = {
            (1, VOTING_ESTIMATE, 0): split,
            (1, VOTING_ESTIMATE, 1): split,
            (1, VOTING_ESTIMATE, 2): split,
        }
        proc._apply_history(history)
        assert proc.instance == (1, VOTING_PREFERENCE, 0)
        assert proc.preference is BOTTOM

    def test_fast_forward_stops_at_gap(self):
        proc, _ = make_proc()
        history = {(1, VOTING_ESTIMATE, 1): votes({0: 1})}  # not my stage
        proc._apply_history(history)
        assert proc.instance == (1, VOTING_ESTIMATE, 0)

    def test_fast_forward_can_decide(self):
        proc, _ = make_proc()
        unanimous = votes({p: 7 for p in range(5)})
        history = {
            (1, VOTING_ESTIMATE, 0): unanimous,
            (1, VOTING_ESTIMATE, 1): unanimous,
            (1, VOTING_ESTIMATE, 2): unanimous,
        }
        proc._apply_history(history)
        assert proc.decided == 7

    def test_sent_envelopes_keep_the_history_they_were_sent_with(self):
        proc, ctx = make_proc()
        view = votes({p: 1 for p in range(5)})
        proc._complete_instance(view)
        probe = Message(src=5, dst=0, payload=Envelope(
            instance=(1, 1, 0), inner=None, probe=True))
        proc.on_step(ctx, [probe])
        reply, broadcast = ctx.outbox
        assert reply.kind == "probe-reply"
        # The gossip broadcast: one record, one envelope.
        assert len(broadcast.dsts) == N - 1
        proc._complete_instance(view)
        assert proc.history == {(1, VOTING_ESTIMATE, 0): view,
                                (1, VOTING_ESTIMATE, 1): view}
        for sent in (reply.payload, broadcast.payload):
            assert sent.history == {(1, VOTING_ESTIMATE, 0): view}


class TestDrainMode:
    def test_decided_process_answers_with_decision(self):
        proc, ctx = make_proc()
        proc.decided = 1
        msg = Message(src=3, dst=0, payload=Envelope(
            instance=(1, 1, 0), inner=(1, None, 0)))
        ctx.outbox = []
        proc.on_step(ctx, [msg])
        assert len(ctx.outbox) == 1
        reply = ctx.outbox[0]
        assert reply.dst == 3
        assert reply.payload.decided == 1

    def test_decided_adopted_from_envelope(self):
        proc, ctx = make_proc()
        msg = Message(src=3, dst=0, payload=Envelope(
            instance=None, inner=None, decided=9))
        proc.on_step(ctx, [msg])
        assert proc.decided == 9

    def test_probe_gets_history_reply(self):
        proc, ctx = make_proc()
        proc.history[(1, 1, 0)] = {0: 1}
        msg = Message(src=5, dst=0, payload=Envelope(
            instance=(1, 1, 0), inner=None, probe=True))
        ctx.outbox = []
        proc.on_step(ctx, [msg])
        replies = [m for m in ctx.outbox if m.kind == "probe-reply"]
        assert len(replies) == 1
        assert replies[0].payload.history == {(1, 1, 0): {0: 1}}


class TestIdleProbing:
    def test_probe_fires_after_idle_interval(self):
        proc = CanettiRabinConsensus(0, N, F, 1, TrivialGossip,
                                     probe_interval=3)
        ctx = Context(0, N, F, derive_rng(0, "t", 0))
        # Step 1: trivial gossip broadcasts (not idle).
        ctx.outbox = []
        proc.on_step(ctx, [])
        assert ctx.outbox
        # Next steps: trivial sends nothing, no progress -> idle grows.
        probe_seen = False
        for _ in range(4):
            ctx.outbox = []
            proc.on_step(ctx, [])
            if any(m.kind == "probe" for m in ctx.outbox):
                probe_seen = True
        assert probe_seen
