"""Schedule plans: which processes take a local step at each time step.

The paper's ``δ`` is the maximum number of consecutive time steps a live
process can go unscheduled. Plans here are *oblivious* building blocks — they
are fixed functions of time and pid, decided before the execution — and each
documents the ``δ`` it guarantees. The adaptive adversary bypasses plans and
chooses schedules on the fly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left
from typing import FrozenSet, Optional, Set

#: ``RoundRobinWindows``'s residue index before any live set was seen.
_NO_INDEX = (None, {}, ())


class SchedulePlan(ABC):
    """A fixed (oblivious) rule mapping time to the set of scheduled pids."""

    #: The scheduling-gap bound this plan guarantees for live processes.
    target_delta: int = 1

    @abstractmethod
    def scheduled_at(self, t: int, alive: FrozenSet[int]) -> Set[int]:
        """Return the pids scheduled at global time ``t``.

        The engine does not intersect the result with the live set: it
        raises :class:`~repro.sim.errors.InvalidScheduleError` on a pid
        that is not live. :meth:`ObliviousAdversary.schedule_at
        <repro.adversary.oblivious.ObliviousAdversary.schedule_at>`
        intersects, so a plan composed there may return crashed pids;
        :class:`~repro.adversary.gst.GstAdversary` hands its plans' answers
        on as they are and relies on :class:`RoundRobinWindows` indexing
        live pids only.
        """

    def next_event_at(self, t: int, alive: FrozenSet[int]) -> Optional[int]:
        """Earliest ``t' >= t`` at which this plan schedules a live pid.

        The time-leap engine jumps over the gap ``[t, t')``, so a return
        of ``t' > t`` asserts ``scheduled_at(u, alive) & alive`` is empty
        for every ``t <= u < t'`` (with ``alive`` unchanged — the engine
        re-queries after every executed step, and crashes only fire at
        event steps). ``None`` means the plan never schedules a live pid
        at or after ``t``. The base implementation conservatively returns
        ``t`` ("something may happen right now"), which keeps unknown
        subclasses correct: the engine then advances stepwise.
        """
        return t


class EveryStep(SchedulePlan):
    """All processes take a step every time step (``δ = 1``).

    This is the maximal-speed schedule; combined with delay-1 messages it
    realizes the synchronous special case ``d = δ = 1``.
    """

    target_delta = 1

    def scheduled_at(self, t: int, alive: FrozenSet[int]) -> Set[int]:
        return set(alive)

    def next_event_at(self, t: int, alive: FrozenSet[int]) -> Optional[int]:
        return t if alive else None


class RoundRobinWindows(SchedulePlan):
    """Each process runs exactly once per ``delta``-length window.

    Process ``p`` is scheduled at times ``t`` with ``t ≡ p (mod delta)``.
    Consecutive scheduled steps of a process are exactly ``delta`` apart, so
    every window of ``delta`` steps contains one — the tightest schedule
    realizing a given ``δ > 1``.
    """

    def __init__(self, delta: int) -> None:
        if delta < 1:
            raise ValueError(f"delta must be >= 1, got {delta}")
        self.delta = delta
        self.target_delta = delta
        # Pure memo: (alive, {residue: pids}, sorted occupied residues) for
        # the last ``alive`` frozenset seen, keyed on its identity — the
        # engine hands over the same cached object until a crash. It is
        # never part of the plan's identity: forks share the plan and may
        # alternate live sets, which only costs rebuilds, and a copy's
        # memo answers only for the very live set it was built from.
        self._index: tuple = _NO_INDEX

    def _indexed(self, alive: FrozenSet[int]) -> tuple:
        index = self._index
        if index[0] is not alive:
            index = self._index = self._build_index(alive)
        return index

    def _build_index(self, alive: FrozenSet[int]) -> tuple:
        buckets: dict = {}
        for pid in alive:
            buckets.setdefault(pid % self.delta, []).append(pid)
        return (
            alive,
            {residue: frozenset(pids) for residue, pids in buckets.items()},
            sorted(buckets),
        )

    def scheduled_at(self, t: int, alive: FrozenSet[int]) -> Set[int]:
        return self._indexed(alive)[1].get(t % self.delta, frozenset())

    def next_event_at(self, t: int, alive: FrozenSet[int]) -> Optional[int]:
        # A residue-class schedule has an empty step exactly when no live
        # pid occupies the step's residue: bisect the occupied residues.
        residues = self._indexed(alive)[2]
        if not residues:
            return None
        r = t % self.delta
        idx = bisect_left(residues, r)
        if idx < len(residues):
            return t + (residues[idx] - r)
        return t + (self.delta - r) + residues[0]
