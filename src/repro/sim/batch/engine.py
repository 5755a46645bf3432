"""The batched trial engine: one tick advances B seeds as array ops.

This is the scalar :class:`repro.sim.engine.Simulation` stepwise loop,
specialized to the coordinates every large campaign actually runs —
EARS/SEARS under the oblivious ``uniform`` adversary
(:class:`RoundRobinWindows` schedule + hash delays, optional crash plan)
with the gossip completion monitor checked every step — and transposed
into struct-of-arrays form (:class:`~repro.sim.batch.state.BatchState`)
so the per-step work is numpy kernels over a ``(trial, ...)`` axis
instead of Python iteration per process per trial.

Semantics contract (the conformance suite enforces it):

* Everything *except the RNG draws* reproduces the scalar engine
  exactly: crash ordering before scheduling, the Figure 2 merge →
  L(p)=∅ → send → stamp sequence with payloads snapshotted before
  stamping, receiver-side inference, delivery at the receiver's first
  scheduled step at-or-after ``sent_at + λ``, sends to crashed
  destinations counted then dropped, completion recorded at the step
  whose post-step check first holds, the stalled-system early stop,
  and the trailing-gap δ fold
  (shared with scalar via :func:`repro.sim.metrics.trailing_gap`).
* The RNG discipline changes: fanout targets and message delays come
  from counter-based per-``(trial, pid)`` streams
  (:mod:`repro.sim.batch.rng`) instead of per-process Mersenne Twister
  and sha256. Each trial's stream is a pure function of its own seed,
  so results are bit-identical across batch compositions (B=1 vs B=64)
  and re-runs, while scalar-vs-batch equivalence is distributional
  (KS-gated), not bit-exact.

Delivery uses a sparse arrival queue plus a per-receiver pending
accumulator: messages sent at ``t`` with delay λ are queued under the
absolute step ``t + λ``; that key is drained into ``pend`` at the start
of step ``t + λ`` — *before* the step's own sends (whose arrivals lie
in ``[t+1, t+d]``) enqueue — and a scheduled receiver consumes its
accumulator exactly like the scalar heap ``collect``.

Two monitor quantities the scalar engine recomputes from scratch are
maintained incrementally here (they only change on delivery, sleep
transition, or crash): per-trial counts of processes still short of the
completion target (``notfull_cnt``) and still inside the shut-down
budget (``awake_cnt``). The every-step check is then O(B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..metrics import trailing_gap
from .rng import PhiloxCounter, delay_keys_for_trials, hash_delays
from .state import (
    REASON_COMPLETED,
    REASON_LABELS,
    REASON_RUNNING,
    REASON_STALLED,
    REASON_STEP_LIMIT,
    U64,
    BatchState,
    pack_alive,
)

_I64 = np.int64


def _and_fold(rows: np.ndarray) -> np.ndarray:
    """AND-reduce ``(L, m, W)`` over the middle axis by repeated halving.

    Equivalent to ``np.bitwise_and.reduce(rows, axis=1)`` but ~5x faster:
    every pass is one full-width vectorized AND instead of the ufunc
    reduction's strided inner loop.
    """
    m = rows.shape[1]
    if m == 1:
        return rows[:, 0].copy()
    h = m // 2
    acc = rows[:, :h] & rows[:, h : 2 * h]
    if m & 1:
        acc[:, 0] &= rows[:, -1]
    m = h
    while m > 1:
        h = m // 2
        acc[:, :h] &= acc[:, h : 2 * h]
        if m & 1:
            acc[:, 0] &= acc[:, m - 1]
        m = h
    return acc[:, 0]


@dataclass
class BatchTrialResult:
    """Per-trial outcome in the scalar ``RunResult``/snapshot shape."""

    completed: bool
    reason: str
    completion_time: Optional[int]
    steps: int
    messages: int
    gathering_time: Optional[int]
    metrics: dict


class BatchSimulation:
    """B independent trials of one (n, f, d, δ, algorithm) cell.

    ``crash_events[b]`` is trial ``b``'s resolved
    :meth:`~repro.adversary.crash_plans.CrashPlan.events` table; crash
    steps run through a tiny Python loop (they are rare), everything
    else is columnar.
    """

    def __init__(
        self,
        n: int,
        f: int,
        seeds: Sequence[int],
        *,
        fanout: int,
        shutdown_sends: int,
        d: int,
        delta: int,
        crash_events: Optional[
            Sequence[Sequence[Tuple[int, Sequence[int]]]]
        ] = None,
        majority: bool = False,
    ) -> None:
        self.n, self.f = n, f
        self.B = B = len(seeds)
        self.seeds = list(seeds)
        self.fanout = fanout
        self.shutdown_sends = shutdown_sends
        self.d = max(1, d)
        self.delta = max(1, delta)
        self.majority = majority
        self.state = BatchState(B, n, self.d)
        self.rng = PhiloxCounter.for_trials(self.seeds, n)
        self.delay_keys = delay_keys_for_trials(self.seeds)
        # Strictly-lower-triangle mask for same-step target dedup.
        self._tril = np.tril(np.ones((fanout, fanout), dtype=bool), -1)

        # Crash tables: step -> [(trial, pids array)], plus the latest
        # event time per trial for the has_pending_events stall test.
        self.crashes_by_step: Dict[int, List[Tuple[int, np.ndarray]]] = {}
        self.max_crash_time = np.full(B, -1, dtype=_I64)
        if crash_events:
            for b, events in enumerate(crash_events):
                for when, pids in events or ():
                    self.crashes_by_step.setdefault(int(when), []).append(
                        (b, np.asarray(sorted(pids), dtype=np.intp))
                    )
                    if when > self.max_crash_time[b]:
                        self.max_crash_time[b] = when
        self._has_crashes = bool(self.crashes_by_step)

        # The round-robin schedule is periodic: cache, per residue
        # t % delta, the scheduled pids and their flat (trial, pid) lane
        # indices into the (B·n, ...)-reshaped state arrays.
        self._sched_cache: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}

        self._recount_monitor()

    # ------------------------------------------------------------------ #
    # Monitor accelerator bookkeeping
    # ------------------------------------------------------------------ #

    def _rows_full(self, V_rows: np.ndarray, aw_rows: np.ndarray):
        """Does each packed rumor row satisfy the completion target?

        ``V_rows``/``aw_rows`` broadcast over matching leading axes with
        a trailing word axis; the majority variant ignores ``aw_rows``.
        """
        if self.majority:
            need = self.n // 2 + 1
            return np.bitwise_count(V_rows).sum(axis=-1) >= need
        return ~((aw_rows & ~V_rows).any(axis=-1))

    def _recount_monitor(self, trials: Optional[np.ndarray] = None) -> None:
        """Recompute ``full``/``notfull_cnt``/``awake_cnt`` from scratch
        for ``trials`` (all trials when None). Used at construction and
        after crashes, where the live set — hence the target — moves."""
        st = self.state
        b = slice(None) if trials is None else trials
        st.full[b] = self._rows_full(st.V[b], st.alive_words[b][..., None, :])
        st.notfull_cnt[b] = (st.alive[b] & ~st.full[b]).sum(axis=-1)
        st.awake_cnt[b] = (
            st.alive[b] & (st.sleep_cnt[b] <= self.shutdown_sends)
        ).sum(axis=-1)

    # ------------------------------------------------------------------ #
    # One global time step, batched
    # ------------------------------------------------------------------ #

    def _apply_crashes(self, t: int) -> None:
        st = self.state
        hit = []
        for b, pids in self.crashes_by_step.get(t, ()):
            if not st.running[b]:
                continue
            live = pids[st.alive[b, pids]]
            if live.size == 0:
                continue
            st.alive[b, live] = False
            st.crashes[b] += live.size
            st.msg_dropped[b] += st.drop_queued_for(b, live)
            st.in_flight[b] = st.queued_count(b)
            st.alive_words[b] = pack_alive(
                st.alive[b : b + 1], st.bitcol
            )[0]
            hit.append(b)
        if hit:
            self._recount_monitor(np.asarray(hit, dtype=np.intp))

    def _promote(self, t: int) -> None:
        """Drain messages with ``deliverable_at == t`` into the
        per-receiver pending accumulators."""
        st = self.state
        blocks = st.arrivals.pop(t, None)
        if not blocks:
            return
        n, W = self.n, st.W
        pend_V = st.pend_V.reshape(-1, W)
        pend_I = st.pend_I.reshape(-1, n, W)
        pend_cnt = st.pend_cnt.reshape(-1)
        pend_maxd = st.pend_maxd.reshape(-1)
        for mb, dst, lane, pay_V, pay_I, delay in blocks:
            if mb.size == 0:
                continue
            flat = mb * n + dst
            if np.unique(flat).size == flat.size:
                # No receiver got two messages from this block: plain
                # fancy updates beat the unbuffered ufunc.at scatter.
                pend_V[flat] |= pay_V[lane]
                pend_I[flat] |= pay_I[lane]
                pend_cnt[flat] += 1
                pend_maxd[flat] = np.maximum(pend_maxd[flat], delay)
            else:
                np.bitwise_or.at(pend_V, flat, pay_V[lane])
                np.bitwise_or.at(pend_I, flat, pay_I[lane])
                np.add.at(pend_cnt, flat, 1)
                np.maximum.at(pend_maxd, flat, delay)

    def _scheduled_pids(self, t: int) -> np.ndarray:
        if self.delta <= 1:
            return np.arange(self.n, dtype=np.intp)
        return np.arange(t % self.delta, self.n, self.delta, dtype=np.intp)

    def _scheduled(self, t: int) -> Tuple[np.ndarray, np.ndarray]:
        """Scheduled pids at ``t`` plus their flat (trial, pid) lane
        indices, cached per schedule residue."""
        r = t % self.delta
        hit = self._sched_cache.get(r)
        if hit is None:
            s_pids = self._scheduled_pids(t)
            lanes = (
                np.arange(self.B, dtype=np.intp)[:, None] * self.n
                + s_pids[None, :]
            ).ravel()
            hit = (s_pids, lanes)
            self._sched_cache[r] = hit
        return hit

    def step(self, t: int) -> None:
        st = self.state
        n, W, B = self.n, st.W, self.B

        if self._has_crashes:
            self._apply_crashes(t)
        self._promote(t)

        s_pids, lanes = self._scheduled(t)
        if s_pids.size == 0:
            return
        if self._has_crashes:
            eff = st.running[:, None] & st.alive[:, s_pids]
            st.local_steps += eff.sum(axis=1)
        else:
            # All processes alive: every scheduled lane of a running
            # trial is effective, and a (B, 1) mask broadcasts through
            # the per-lane ops below without materializing (B, S).
            eff = st.running[:, None]
            st.local_steps[st.running] += s_pids.size

        # record_scheduled: fold the observed gap, stamp last_sched.
        prev = st.last_sched[:, s_pids]
        gap = np.where(prev >= 0, t - prev, t + 1)
        np.maximum(
            st.realized_delta,
            np.where(eff, gap, 0).max(axis=1),
            out=st.realized_delta,
        )
        st.last_sched[:, s_pids] = np.where(eff, t, prev)

        # Deliver: scheduled receivers consume their pending accumulator.
        take = eff & (st.pend_cnt[:, s_pids] > 0)
        if take.any():
            bi, sj = np.nonzero(take)
            rp = s_pids[sj]
            cnt = st.pend_cnt[bi, rp]
            moved = np.bincount(bi, weights=cnt, minlength=B)
            moved = moved.astype(_I64)
            st.msg_delivered += moved
            st.in_flight -= moved
            np.maximum.at(st.realized_d, bi, st.pend_maxd[bi, rp])
            inbox_V = st.pend_V[bi, rp]
            st.V[bi, rp] |= inbox_V
            st.I[bi, rp] |= st.pend_I[bi, rp]
            # Receiver-side inference: rumors in the inbox were, by
            # definition, sent to the receiver.
            st.I[bi, rp, rp] |= inbox_V
            st.pend_V[bi, rp] = U64(0)
            st.pend_I[bi, rp] = U64(0)
            st.pend_cnt[bi, rp] = 0
            st.pend_maxd[bi, rp] = 0
            # Rumor rows moved: refresh their completion-target bit and
            # the per-trial short-of-target count (only alive receivers
            # consume, so every transition is an alive transition).
            was_full = st.full[bi, rp]
            if not was_full.all():
                now_full = self._rows_full(
                    st.V[bi, rp], st.alive_words[bi]
                )
                became = now_full & ~was_full
                if became.any():
                    st.full[bi[became], rp[became]] = True
                    st.notfull_cnt -= np.bincount(
                        bi[became], minlength=B
                    )

        # L(p) = ∅ test for every scheduled lane: V(p) ⊆ I(p)[q] for all
        # q, i.e. V(p) ⊆ AND-fold over q of I(p) rows.
        S = s_pids.size
        I_and = _and_fold(st.I.reshape(B * n, n, W)[lanes])
        uncov = st.V[:, s_pids] & ~I_and.reshape(B, S, W)
        le = ~uncov.any(axis=-1)
        cur = st.sleep_cnt[:, s_pids]
        new_sleep = np.where(le, cur + 1, 0)
        st.sleep_cnt[:, s_pids] = np.where(eff, new_sleep, cur)
        # Sleep transitions move the per-trial awake count (dead lanes
        # never reach here: eff excludes them, and crashes debit the
        # count directly).
        ss = self.shutdown_sends
        fell_asleep = eff & le & (cur == ss)
        woke = eff & ~le & (cur > ss)
        if fell_asleep.any() or woke.any():
            st.awake_cnt += woke.sum(axis=1) - fell_asleep.sum(axis=1)

        # Send phase: lanes still inside the shut-down budget transmit.
        act = eff & (new_sleep <= ss)
        if not act.any():
            return
        bi, sj = np.nonzero(act)
        src = s_pids[sj]
        k = self.fanout
        raw = self.rng.draw((bi, src), k)
        targets = (raw % U64(n)).astype(_I64)
        if k == 1:
            m_b, m_src = bi, src
            m_dst = targets[:, 0]
            m_lane = np.arange(bi.size, dtype=np.intp)
            # Message counts per trial, dense over the (B, S) lanes.
            sent = act.sum(axis=1)
            shut = (act & (new_sleep >= 1)).sum(axis=1)
        else:
            dup = (targets[:, :, None] == targets[:, None, :]) & self._tril
            valid = ~dup.any(axis=2)
            n_valid = valid.sum(axis=1)
            fmask = valid.ravel()
            m_b = np.repeat(bi, k)[fmask]
            m_src = np.repeat(src, k)[fmask]
            m_dst = targets.ravel()[fmask]
            m_lane = np.repeat(
                np.arange(bi.size, dtype=np.intp), k
            )[fmask]
            is_shut = new_sleep[act] >= 1
            sent = np.bincount(bi, weights=n_valid, minlength=B)
            sent = sent.astype(_I64)
            shut = np.bincount(
                bi[is_shut], weights=n_valid[is_shut], minlength=B
            ).astype(_I64)
        st.msg_sent += sent
        st.kind_shutdown += shut
        st.kind_gossip += sent - shut
        st.last_send[act.any(axis=1)] = t

        delays = hash_delays(
            self.delay_keys[m_b], m_src, m_dst, t, n, self.d
        )
        # Payload snapshots, shared per sender lane (a fanout burst
        # carries one ⟨V, I⟩ snapshot to every target).
        pay_V = st.V[bi, src]
        pay_I = st.I[bi, src]

        if self._has_crashes:
            dst_alive = st.alive[m_b, m_dst]
            if not dst_alive.all():
                np.add.at(st.msg_dropped, m_b[~dst_alive], 1)
            live = np.nonzero(dst_alive)[0]
        else:
            live = slice(None)
        ab = m_b[live]
        if ab.size:
            adst, alane = m_dst[live], m_lane[live]
            adelay = delays[live]
            if self.d == 1:
                st.arrivals.setdefault(t + 1, []).append(
                    (ab, adst, alane, pay_V, pay_I, 1)
                )
            else:
                for dd in np.unique(adelay):
                    sel = adelay == dd
                    st.arrivals.setdefault(t + int(dd), []).append(
                        (ab[sel], adst[sel], alane[sel],
                         pay_V, pay_I, int(dd))
                    )
            st.in_flight += np.bincount(ab, minlength=B)

        # Stamp I(p) for every target only after the payload snapshots
        # above, exactly as Figure 2 sends ⟨V, I⟩ first and extends
        # after. (b, src, dst) triples are unique within a step — dedup
        # removed same-lane repeats — so a buffered fancy |= suffices.
        I_flat = st.I.reshape(-1, W)
        stamp_flat = (m_b * n + m_src) * n + m_dst
        I_flat[stamp_flat] |= pay_V if k == 1 else pay_V[m_lane]

    # ------------------------------------------------------------------ #
    # Monitor + stall checks (after every step, as the scalar loop)
    # ------------------------------------------------------------------ #

    def _gathered(self) -> np.ndarray:
        """Reference recompute of the incremental ``notfull_cnt == 0``
        test (conformance suite cross-checks the two)."""
        st = self.state
        ok = self._rows_full(st.V, st.alive_words[:, None, :])
        return (ok | ~st.alive).all(axis=1)

    def _quiescent(self) -> np.ndarray:
        """Reference recompute of ``awake_cnt == 0 and in_flight == 0``."""
        st = self.state
        asleep = (st.sleep_cnt > self.shutdown_sends) | ~st.alive
        return asleep.all(axis=1) & (st.in_flight == 0)

    def _check(self, t: int) -> None:
        """Post-step monitor + stall evaluation at ``_now = t + 1``."""
        st = self.state
        now = t + 1
        running = st.running
        if not running.any():
            return
        gathered = (st.notfull_cnt == 0) & running
        first = gathered & (st.gathering_time < 0)
        if first.any():
            st.gathering_time[first] = now

        quiesc = (st.awake_cnt == 0) & (st.in_flight == 0)
        done = gathered & quiesc
        if done.any():
            st.completed[done] = True
            st.reason[done] = REASON_COMPLETED
            st.completion_time[done] = now
            st.steps_end[done] = now
            st.running[done] = False
            running = st.running

        stalled = running & quiesc & (self.max_crash_time < now)
        if stalled.any():
            st.reason[stalled] = REASON_STALLED
            st.steps_end[stalled] = now
            st.running[stalled] = False

    # ------------------------------------------------------------------ #
    # Run + finalize
    # ------------------------------------------------------------------ #

    def run(self, max_steps: int) -> List[BatchTrialResult]:
        st = self.state
        t = 0
        while t < max_steps and st.running.any():
            self.step(t)
            self._check(t)
            t += 1
        leftovers = st.running
        if leftovers.any():
            # The monitor was evaluated right after the final step, so
            # these trials hit the step limit.
            st.reason[leftovers] = REASON_STEP_LIMIT
            st.steps_end[leftovers] = t
            st.running[leftovers] = False
        self._finalize()
        return self._results()

    def _finalize(self) -> None:
        """Columnar Metrics.finalize: fold trailing scheduling gaps of
        live processes into realized δ (shared fold: trailing_gap)."""
        st = self.state
        end = np.where(st.completed, st.completion_time, st.steps_end)
        gaps = trailing_gap(end[:, None], st.last_sched)
        np.maximum(
            st.realized_delta,
            np.where(st.alive, gaps, 0).max(axis=1),
            out=st.realized_delta,
        )

    def _results(self) -> List[BatchTrialResult]:
        st = self.state
        out: List[BatchTrialResult] = []
        for b in range(self.B):
            assert st.reason[b] != REASON_RUNNING
            completed = bool(st.completed[b])
            completion = (
                int(st.completion_time[b]) if completed else None
            )
            by_kind = {}
            if st.kind_gossip[b]:
                by_kind["gossip"] = int(st.kind_gossip[b])
            if st.kind_shutdown[b]:
                by_kind["shutdown"] = int(st.kind_shutdown[b])
            metrics = {
                "n": self.n,
                "messages_sent": int(st.msg_sent[b]),
                "messages_delivered": int(st.msg_delivered[b]),
                "messages_dropped": int(st.msg_dropped[b]),
                "messages_by_kind": by_kind,
                "bits_sent": 0,
                "steps_elapsed": int(st.steps_end[b]),
                "local_steps_taken": int(st.local_steps[b]),
                "crashes": int(st.crashes[b]),
                "realized_d": int(st.realized_d[b]),
                "realized_delta": int(st.realized_delta[b]),
                "completion_time": completion,
                "last_send_time": (
                    int(st.last_send[b]) if st.last_send[b] >= 0 else None
                ),
            }
            out.append(
                BatchTrialResult(
                    completed=completed,
                    reason=REASON_LABELS[int(st.reason[b])],
                    completion_time=completion,
                    steps=int(st.steps_end[b]),
                    messages=int(st.msg_sent[b]),
                    gathering_time=(
                        int(st.gathering_time[b])
                        if st.gathering_time[b] >= 0
                        else None
                    ),
                    metrics=metrics,
                )
            )
        return out
