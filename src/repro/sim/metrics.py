"""Complexity accounting for a single execution.

The paper's two measures are *time complexity* (global time steps until every
correct process has completed) and *message complexity* (total point-to-point
messages sent by all processes). This module also measures the realized
synchrony parameters ``d`` and ``δ`` of the execution, since in the paper
these are per-execution quantities the algorithm never sees.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Optional

from .message import FanOut

#: Sentinel for "never scheduled" in :func:`trailing_gap`. The batch
#: engine's columnar ``last_scheduled`` arrays use it directly; the scalar
#: :class:`Metrics` maps its ``dict.get(pid) is None`` case onto it.
NEVER_SCHEDULED = -1


def trailing_gap(end, last_scheduled):
    """The tail-end scheduling gap of one process (or an array of them).

    ``record_scheduled`` can only observe a gap when the *next* scheduled
    step arrives, so a process starved from its last scheduled step until
    the end of the execution would under-report the very δ that starvation
    schedules are built to inflate (the PR 5 regression). The trailing gap
    is ``end - last_scheduled``, or ``end + 1`` when the process was never
    scheduled at all (``last_scheduled == NEVER_SCHEDULED``), matching the
    from-time-0 convention of the first-schedule gap.

    Works elementwise on numpy integer arrays as well as plain ints —
    the scalar :meth:`Metrics.finalize` and the batch engine's columnar
    finalize share this single implementation.
    """
    never = last_scheduled == NEVER_SCHEDULED
    if never is True or never is False:  # plain-int path
        return end + 1 if never else end - last_scheduled
    import numpy  # array path; numpy is present whenever arrays are

    return numpy.where(never, end + 1, end - last_scheduled)


@dataclass
class Metrics:
    """Mutable accounting updated by the engine as an execution unfolds."""

    n: int
    messages_sent: int = 0
    messages_delivered: int = 0
    #: Messages discarded: addressed to an already-crashed process, or
    #: pending for a process at the moment it crashed. Conservation:
    #: sent == delivered + dropped + in-flight, always.
    messages_dropped: int = 0
    messages_by_kind: Counter = field(default_factory=Counter)
    #: Estimated payload bits sent (populated only when the simulation has
    #: a bit meter attached; see repro.sim.bits).
    bits_sent: int = 0
    steps_elapsed: int = 0
    local_steps_taken: int = 0
    crashes: int = 0
    crash_times: Dict[int, int] = field(default_factory=dict)

    #: Realized maximum delivered message delay (the execution's ``d``).
    realized_d: int = 0
    #: Realized maximum scheduling gap of a live process (the execution's ``δ``).
    realized_delta: int = 0

    #: Time at which the completion monitor first held, if it did.
    completion_time: Optional[int] = None
    #: Time of the last message send observed (quiescence indicator).
    last_send_time: Optional[int] = None

    _last_scheduled: Dict[int, int] = field(default_factory=dict)

    def record_send(self, outbox, now: int) -> None:
        """Count one process-step's outbox: every message in it was sent
        at ``now``.

        Totals move once per outbox and the per-kind counters once per
        run of equal kinds — the run detection is the one statement left
        per message (cheaper than any C spelling measured, see
        docs/performance.md). A :class:`FanOut` counts as its
        ``len(dsts)`` messages. Who sent to whom is not kept here: the
        Theorem 1 adversary, its one reader, counts the sends it reads
        (:class:`~repro.adversary.adaptive.ScriptedAdversary`).
        """
        if not outbox:
            return
        by_kind = self.messages_by_kind
        if FanOut in map(type, outbox):
            count = 0
            for msg in outbox:
                size = len(msg.dsts) if type(msg) is FanOut else 1
                by_kind[msg.kind] += size
                count += size
        else:
            count = len(outbox)
            kind = outbox[0].kind
            run = 0
            for msg in outbox:
                if msg.kind is not kind:
                    by_kind[kind] += run
                    kind = msg.kind
                    run = 0
                run += 1
            by_kind[kind] += run
        self.messages_sent += count
        self.last_send_time = now

    def record_delivery(self, count: int, max_delay: int) -> None:
        self.messages_delivered += count
        if max_delay > self.realized_d:
            self.realized_d = max_delay

    def record_scheduled(self, pid: int, now: int) -> None:
        previous = self._last_scheduled.get(pid)
        if previous is not None:
            gap = now - previous
            if gap > self.realized_delta:
                self.realized_delta = gap
        elif now + 1 > self.realized_delta:
            # The gap from time 0 to the first scheduled step also counts:
            # "during any sequence of δ time steps, each non-crashed process
            # is scheduled at least once".
            self.realized_delta = now + 1
        self._last_scheduled[pid] = now
        self.local_steps_taken += 1

    def record_crash(self, pid: int, now: int) -> None:
        self.crashes += 1
        self.crash_times[pid] = now
        self._last_scheduled.pop(pid, None)

    def finalize(self, end: int, alive) -> None:
        """Fold each live process's trailing scheduling gap into
        ``realized_delta``.

        The gap itself comes from :func:`trailing_gap`, shared with the
        batch engine's columnar finalize so both paths cannot drift
        (``end``: ``completion_time`` when the run completed, the current
        step otherwise).

        Idempotent and monotone: gaps are max-folded and
        ``_last_scheduled`` is left untouched, so calling this at the end
        of a run and again after resuming it never over- or
        double-counts.
        """
        for pid in alive:
            last = self._last_scheduled.get(pid, NEVER_SCHEDULED)
            gap = trailing_gap(end, last)
            if gap > self.realized_delta:
                self.realized_delta = gap

    def clone(self) -> "Metrics":
        """O(state) copy for simulation forking: counters and dicts are
        rebuilt, scalars carried over. Equivalent to ``copy.deepcopy`` but
        without the recursive traversal."""
        return Metrics(
            n=self.n,
            messages_sent=self.messages_sent,
            messages_delivered=self.messages_delivered,
            messages_dropped=self.messages_dropped,
            messages_by_kind=Counter(self.messages_by_kind),
            bits_sent=self.bits_sent,
            steps_elapsed=self.steps_elapsed,
            local_steps_taken=self.local_steps_taken,
            crashes=self.crashes,
            crash_times=dict(self.crash_times),
            realized_d=self.realized_d,
            realized_delta=self.realized_delta,
            completion_time=self.completion_time,
            last_send_time=self.last_send_time,
            _last_scheduled=dict(self._last_scheduled),
        )

    def snapshot(self) -> dict:
        """Immutable summary used by results, benches and tests."""
        return {
            "n": self.n,
            "messages_sent": self.messages_sent,
            "messages_delivered": self.messages_delivered,
            "messages_dropped": self.messages_dropped,
            "messages_by_kind": dict(self.messages_by_kind),
            "bits_sent": self.bits_sent,
            "steps_elapsed": self.steps_elapsed,
            "local_steps_taken": self.local_steps_taken,
            "crashes": self.crashes,
            "realized_d": self.realized_d,
            "realized_delta": self.realized_delta,
            "completion_time": self.completion_time,
            "last_send_time": self.last_send_time,
        }
