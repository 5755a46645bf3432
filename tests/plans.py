"""Schedule plans, a delay-plan base and an adaptive adversary that only
tests feed to the engine.

No registry entry, driver or built-in adversary uses them: the shipped
schedules are :class:`~repro.sim.scheduler.EveryStep` and
:class:`~repro.sim.scheduler.RoundRobinWindows`, the shipped delay plans
stamp outboxes their own way, and Theorem 1 scripts its phases through
:class:`~repro.adversary.adaptive.ScriptedAdversary`. They live here as
inputs to tests of shipped code: the leap engine's differential suite,
the fork protocol, the delay layer, the metrics and the seed pins.
"""

from __future__ import annotations

import random
from typing import FrozenSet, Optional, Sequence, Set

from repro.adversary.adaptive import AdaptiveAdversary
from repro.adversary.delay_plans import DelayPlan
from repro.sim.message import FanOut, Message, pack, typecode
from repro.sim.scheduler import SchedulePlan


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
    and hand-built adversaries; the lower-bound adversary scripts its
    phases through :attr:`ScriptedAdversary.scheduled
    <repro.adversary.adaptive.ScriptedAdversary.scheduled>` instead.
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
    scheduling gap grows with the phase length).  Running ``S1`` while
    starving ``S2`` is how the proof of Theorem 1 inflates ``δ``; the
    lower-bound adversary does that by setting
    :attr:`ScriptedAdversary.scheduled
    <repro.adversary.adaptive.ScriptedAdversary.scheduled>`, not with
    this plan.
    """

    def __init__(self, subset: Set[int], target_delta: int = 1) -> None:
        self.subset = frozenset(subset)
        self.target_delta = target_delta

    def scheduled_at(self, t: int, alive: FrozenSet[int]) -> Set[int]:
        return set(self.subset & alive)

    def next_event_at(self, t: int, alive: FrozenSet[int]) -> Optional[int]:
        return t if self.subset & alive else None


class CrashEagerSendersAdversary(AdaptiveAdversary):
    """Crashes the first ``budget`` distinct processes observed sending.

    With ``watch_dst`` set, only senders addressing that particular process
    are marked. Demonstrates adaptivity: victims are then a function of the
    algorithm's own random target choices, which no oblivious plan could
    express.
    """

    def __init__(self, budget: int, watch_dst: Optional[int] = None) -> None:
        self.budget = budget
        self.watch_dst = watch_dst
        self._victims: Set[int] = set()
        self._pending: Set[int] = set()

    def assign_delay(self, msg: Message) -> int:
        if self.watch_dst is not None and msg.dst != self.watch_dst:
            return 1
        if len(self._victims) + len(self._pending) < self.budget:
            if msg.src not in self._victims:
                self._pending.add(msg.src)
        return 1

    def crashes_at(self, t: int) -> Set[int]:
        fired, self._pending = self._pending, set()
        self._victims |= fired
        return fired


class PerMessageDelays(DelayPlan):
    """A delay plan whose ``stamp`` asks :meth:`assign` for every message
    and every destination of a record, in order: the contract a shipped
    plan's ``stamp`` computes more cheaply, for plans that define only
    ``assign``."""

    def stamp(self, outbox: Sequence, t: int) -> None:
        assign = self.assign
        for msg in outbox:
            msg.sent_at = t
            if type(msg) is FanOut:
                msg.delays = pack(typecode(self.target_d), [
                    int(assign(msg.message(index)))
                    for index in range(len(msg.dsts))
                ])
            else:
                msg.delay = int(assign(msg))
