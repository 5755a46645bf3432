"""Struct-of-arrays state for the batched trial engine.

Everything the scalar engine keeps as per-object Python state becomes a
columnar array with a leading ``trial`` axis of size ``B``:

* ``V`` — each process's rumor set ``V(p)``, packed ``n`` bits into
  ``W = ceil(n / 64)`` uint64 words: shape ``(B, n, W)``.
* ``I`` — each process's send-knowledge ``I(p)``: for every destination
  ``q``, the mask of rumors ``p`` knows to have been sent to ``q``.
  The scalar engine packs this as one ``n²``-bit int with bit
  ``q * n + r``; here it is the third axis: shape ``(B, n, n, W)``.
* in-flight messages — a sparse queue keyed by *absolute* arrival step:
  each entry is a block of same-send-step messages holding index arrays
  ``(trial, dst, lane)`` plus the payload snapshots of the *sender
  lanes* (shared by every copy a fanout send produces). At step ``t``
  the blocks under key ``t`` merge into the per-receiver ``pend``
  accumulator, which a scheduled receiver consumes exactly like the
  scalar heap ``collect``. Keeping the queue sparse bounds memory by
  messages actually in flight (≤ ``d`` steps' worth) instead of a dense
  ``d``-slot payload ring.
* columnar :class:`~repro.sim.metrics.Metrics` counters, finalized per
  trial into the scalar snapshot shape at the end of the run.
* monitor accelerators — ``full`` (does ``V(p)`` already satisfy the
  completion target), ``notfull_cnt`` and ``awake_cnt`` per trial, kept
  incrementally by the engine so the every-step monitor check is O(B).

The memory hot spot is the ``I`` payloads: live state + pend double the
``B · n² · W / 8`` bytes, and the queue adds at most a few steps of
sender-lane snapshots. :func:`estimate_bytes` lets the store layer cap
batch sizes so one batch stays within a fixed budget.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

U64 = np.uint64

#: Terminal reason codes for the columnar ``reason`` array.
REASON_RUNNING = 0
REASON_COMPLETED = 1
REASON_STALLED = 2
REASON_STEP_LIMIT = 3

REASON_LABELS = {
    REASON_COMPLETED: "completed",
    REASON_STALLED: "stalled",
    REASON_STEP_LIMIT: "step-limit",
}

#: One queued-message block: (trial, dst, lane, pay_V, pay_I, delay).
#: ``lane`` indexes into the block's shared sender-lane payload arrays.
MsgBlock = Tuple[
    np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray, int
]


def words_for(n: int) -> int:
    """uint64 words needed to hold an ``n``-bit mask."""
    return (n + 63) // 64


def estimate_bytes(B: int, n: int, d: int) -> int:
    """Rough allocation size of one :class:`BatchState` (I-payloads only;
    the V-sized and per-process arrays are second-order). The third
    ``n² · W`` term budgets the in-flight sender-lane snapshots."""
    del d  # sparse queue: in-flight payloads no longer scale with d
    W = words_for(n)
    return 3 * B * n * n * W * 8


def bit_columns(n: int) -> np.ndarray:
    """Row ``p`` is the single-bit mask ``1 << p`` packed into W words."""
    W = words_for(n)
    cols = np.zeros((n, W), dtype=U64)
    pids = np.arange(n)
    cols[pids, pids // 64] = U64(1) << (pids % 64).astype(U64)
    return cols


def pack_alive(alive: np.ndarray, bitcol: np.ndarray) -> np.ndarray:
    """Packed ``(B, W)`` mask of live pids from the ``(B, n)`` bool mask."""
    # bool (B, n) × bit rows (n, W): OR is a masked reduce.
    contrib = np.where(alive[:, :, None], bitcol[None, :, :], U64(0))
    return np.bitwise_or.reduce(contrib, axis=1)


class BatchState:
    """All simulation state for ``B`` trials of one coordinate cell."""

    def __init__(self, B: int, n: int, d: int) -> None:
        self.B, self.n, self.d = B, n, d
        W = self.W = words_for(n)
        self.bitcol = bit_columns(n)

        # Process state.
        self.V = np.zeros((B, n, W), dtype=U64)
        self.I = np.zeros((B, n, n, W), dtype=U64)
        pids = np.arange(n)
        self.V[:, pids, pids // 64] = U64(1) << (pids % 64).astype(U64)
        self.I[:, pids, pids, pids // 64] = (
            U64(1) << (pids % 64).astype(U64)
        )
        self.alive = np.ones((B, n), dtype=bool)
        self.sleep_cnt = np.zeros((B, n), dtype=np.int64)

        # In-flight queue (absolute arrival step -> message blocks) and
        # the per-receiver pending accumulators it drains into.
        self.arrivals: Dict[int, List[MsgBlock]] = {}
        self.pend_V = np.zeros((B, n, W), dtype=U64)
        self.pend_I = np.zeros((B, n, n, W), dtype=U64)
        self.pend_cnt = np.zeros((B, n), dtype=np.int64)
        self.pend_maxd = np.zeros((B, n), dtype=np.int64)
        self.in_flight = np.zeros(B, dtype=np.int64)

        # Run control.
        self.running = np.ones(B, dtype=bool)
        self.reason = np.full(B, REASON_RUNNING, dtype=np.int8)
        self.completed = np.zeros(B, dtype=bool)
        self.steps_end = np.zeros(B, dtype=np.int64)

        # Columnar Metrics.
        self.last_sched = np.full((B, n), -1, dtype=np.int64)
        self.msg_sent = np.zeros(B, dtype=np.int64)
        self.msg_delivered = np.zeros(B, dtype=np.int64)
        self.msg_dropped = np.zeros(B, dtype=np.int64)
        self.kind_gossip = np.zeros(B, dtype=np.int64)
        self.kind_shutdown = np.zeros(B, dtype=np.int64)
        self.local_steps = np.zeros(B, dtype=np.int64)
        self.crashes = np.zeros(B, dtype=np.int64)
        self.realized_d = np.zeros(B, dtype=np.int64)
        self.realized_delta = np.zeros(B, dtype=np.int64)
        self.completion_time = np.full(B, -1, dtype=np.int64)
        self.gathering_time = np.full(B, -1, dtype=np.int64)
        self.last_send = np.full(B, -1, dtype=np.int64)

        # Packed live mask, refreshed only on crashes.
        self.alive_words = pack_alive(self.alive, self.bitcol)

        # Monitor accelerators, kept incrementally by the engine:
        # full[b, p]  — V(b, p) already satisfies the completion target
        # notfull_cnt — live processes still short of the target
        # awake_cnt   — live processes inside the shut-down budget
        # (the engine seeds them via its full recount at construction).
        self.full = np.zeros((B, n), dtype=bool)
        self.notfull_cnt = np.full(B, n, dtype=np.int64)
        self.awake_cnt = np.full(B, n, dtype=np.int64)

    def queued_count(self, b: int) -> int:
        """Messages of trial ``b`` still queued (in flight or pending)."""
        queued = int(self.pend_cnt[b].sum())
        for blocks in self.arrivals.values():
            for mb, _dst, _lane, _pv, _pi, _dd in blocks:
                queued += int((mb == b).sum())
        return queued

    def drop_queued_for(self, b: int, pids: Sequence[int]) -> int:
        """Crash cleanup: discard in-flight + pending messages addressed
        to the newly crashed ``pids`` of trial ``b`` (the scalar
        ``Network.drop_all_for``). Returns the dropped count."""
        dropped = int(self.pend_cnt[b, pids].sum())
        if dropped:
            self.pend_V[b, pids] = U64(0)
            self.pend_I[b, pids] = U64(0)
            self.pend_cnt[b, pids] = 0
            self.pend_maxd[b, pids] = 0
        victims = np.asarray(pids, dtype=np.intp)
        for when, blocks in self.arrivals.items():
            for i, (mb, dst, lane, pv, pi, dd) in enumerate(blocks):
                hit = (mb == b) & np.isin(dst, victims)
                cut = int(hit.sum())
                if cut:
                    keep = ~hit
                    blocks[i] = (
                        mb[keep], dst[keep], lane[keep], pv, pi, dd
                    )
                    dropped += cut
        return dropped
