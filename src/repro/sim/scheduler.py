"""Schedule plans: which processes take a local step at each time step.

The paper's ``δ`` is the maximum number of consecutive time steps a live
process can go unscheduled. Plans here are *oblivious* building blocks — they
are fixed functions of time and pid, decided before the execution — and each
documents the ``δ`` it guarantees. The adaptive adversary bypasses plans and
chooses schedules on the fly.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from bisect import bisect_left
from typing import FrozenSet, Optional, Sequence, Set

#: ``RoundRobinWindows``'s residue index before any live set was seen.
_NO_INDEX = (None, {}, ())


class SchedulePlan(ABC):
    """A fixed (oblivious) rule mapping time to the set of scheduled pids."""

    #: The scheduling-gap bound this plan guarantees for live processes.
    target_delta: int = 1

    @abstractmethod
    def scheduled_at(self, t: int, alive: FrozenSet[int]) -> Set[int]:
        """Return the pids scheduled at global time ``t``.

        The engine intersects the result with the live set, so plans may
        return crashed pids harmlessly.
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
        # engine hands over the same cached object until a crash. Like
        # StaggeredWindows._slot_cache it is never part of the plan's
        # identity: forks share the plan and may alternate live sets, which
        # only costs rebuilds, and clones/pickles start empty.
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

    def __getstate__(self) -> dict:
        return dict(self.__dict__, _index=_NO_INDEX)

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


class StaggeredWindows(SchedulePlan):
    """One deterministic-but-scrambled slot per process per window.

    Like :class:`RoundRobinWindows` but each process's slot inside each
    window is drawn from a seeded stream fixed before the execution, so
    relative process speeds vary over time (up to a gap of ``2*delta - 1``
    between consecutive steps; any ``2*delta``-window contains a step, hence
    ``target_delta = 2*delta - 1``). This exercises the asynchrony that
    motivates the paper: two processes' r-th local steps can drift apart.
    """

    def __init__(self, delta: int, seed: int) -> None:
        if delta < 1:
            raise ValueError(f"delta must be >= 1, got {delta}")
        self.delta = delta
        self.seed = seed
        self.target_delta = max(1, 2 * delta - 1)
        # Pure memo over (pid, window) — slots are a deterministic function
        # of (seed, pid, window), so the cache is never part of the plan's
        # identity: it is pruned as windows advance (a long run would
        # otherwise accumulate one entry per pid per window forever) and
        # excluded from clones/pickles (Theorem 1 forks deepcopy the
        # adversary; dragging the memo through every fork is pure waste).
        self._slot_cache: dict = {}
        self._cache_window = -1

    def _slot(self, pid: int, window: int) -> int:
        key = (pid, window)
        slot = self._slot_cache.get(key)
        if slot is None:
            slot = random.Random((self.seed, pid, window).__hash__()).randrange(
                self.delta
            )
            self._slot_cache[key] = slot
        return slot

    def _prune_cache(self, window: int) -> None:
        """Drop memo entries older than the previous window."""
        if window <= self._cache_window:
            return
        self._cache_window = window
        cutoff = window - 1
        stale = [key for key in self._slot_cache if key[1] < cutoff]
        for key in stale:
            del self._slot_cache[key]

    def __getstate__(self) -> dict:
        # Clones (copy / deepcopy / pickle) recompute slots on demand;
        # determinism is unaffected because _slot is pure.
        state = self.__dict__.copy()
        state["_slot_cache"] = {}
        state["_cache_window"] = -1
        return state

    def scheduled_at(self, t: int, alive: FrozenSet[int]) -> Set[int]:
        window, offset = divmod(t, self.delta)
        self._prune_cache(window)
        return {pid for pid in alive if self._slot(pid, window) == offset}

    def next_event_at(self, t: int, alive: FrozenSet[int]) -> Optional[int]:
        if not alive:
            return None
        window, offset = divmod(t, self.delta)
        best: Optional[int] = None
        for pid in alive:
            slot = self._slot(pid, window)
            if slot >= offset and (best is None or slot < best):
                best = slot
        if best is not None:
            return window * self.delta + best
        # Every live slot in this window is behind ``t``: the next event
        # is the earliest live slot of the following window.
        nxt = min(self._slot(pid, window + 1) for pid in alive)
        return (window + 1) * self.delta + nxt


class ExplicitSchedule(SchedulePlan):
    """A schedule given as an explicit table ``t -> set of pids``.

    Steps beyond the table fall back to scheduling everyone. Used by tests
    and by the scripted phases of the lower-bound adversary.
    """

    def __init__(self, table: Sequence[Set[int]], target_delta: int = 1) -> None:
        self.table = [set(entry) for entry in table]
        self.target_delta = target_delta

    def scheduled_at(self, t: int, alive: FrozenSet[int]) -> Set[int]:
        if t < len(self.table):
            return set(self.table[t]) & alive
        return set(alive)

    def next_event_at(self, t: int, alive: FrozenSet[int]) -> Optional[int]:
        if not alive:
            return None
        u = t
        while u < len(self.table):
            if self.table[u] & alive:
                return u
            u += 1
        # Beyond the table everyone is scheduled.
        return max(t, len(self.table))


class SubsetEveryStep(SchedulePlan):
    """Schedule a fixed subset every step; everyone else is frozen out.

    Only valid as a *phase* of an execution (the frozen processes' realized
    scheduling gap grows with the phase length); the lower-bound adversary
    uses this to run ``S1`` while starving ``S2``, which is exactly how the
    proof of Theorem 1 inflates ``δ``.
    """

    def __init__(self, subset: Set[int], target_delta: int = 1) -> None:
        self.subset = frozenset(subset)
        self.target_delta = target_delta

    def scheduled_at(self, t: int, alive: FrozenSet[int]) -> Set[int]:
        return set(self.subset & alive)

    def next_event_at(self, t: int, alive: FrozenSet[int]) -> Optional[int]:
        return t if self.subset & alive else None
