"""The oblivious (d, δ)-adversary.

Composes three fixed plans — a schedule plan, a delay plan and a crash plan —
all decided before the execution and independent of the algorithm's coin
flips. This is the adversary model under which the paper proves EARS, SEARS
and TEARS efficient.
"""

from __future__ import annotations

from typing import FrozenSet, Optional, Sequence, Set

from ..sim.message import Message
from ..sim.scheduler import EveryStep, RoundRobinWindows, SchedulePlan
from .base import Adversary
from .crash_plans import CrashPlan, no_crashes
from .delay_plans import DelayPlan, FixedDelay, HashDelay


class ObliviousAdversary(Adversary):
    """Schedule, delays and crashes all fixed in advance."""

    # The composed plans each document the (d, δ) they guarantee for the
    # whole execution, so the declared targets are checkable invariants.
    declares_bounds = True

    def __init__(
        self,
        schedule: Optional[SchedulePlan] = None,
        delays: Optional[DelayPlan] = None,
        crashes: Optional[CrashPlan] = None,
    ) -> None:
        self.schedule = schedule if schedule is not None else EveryStep()
        self.delays = delays if delays is not None else FixedDelay(1)
        self.crashes = crashes if crashes is not None else no_crashes()

    # -- constructors ---------------------------------------------------- #

    @classmethod
    def synchronous_like(cls, crashes: Optional[CrashPlan] = None
                         ) -> "ObliviousAdversary":
        """The d = δ = 1 execution (the synchronous special case)."""
        return cls(EveryStep(), FixedDelay(1), crashes)

    @classmethod
    def uniform(
        cls,
        d: int,
        delta: int,
        seed: int = 0,
        crashes: Optional[CrashPlan] = None,
    ) -> "ObliviousAdversary":
        """Standard benchmark adversary realizing target bounds (d, δ).

        Uses a δ-window round-robin schedule and hash-derived per-message
        delays in ``[1, d]``.
        """
        schedule: SchedulePlan
        schedule = EveryStep() if delta <= 1 else RoundRobinWindows(delta)
        delays: DelayPlan
        delays = FixedDelay(1) if d <= 1 else HashDelay(d, seed=seed)
        return cls(schedule, delays, crashes)

    # -- Adversary contract ----------------------------------------------#

    @property
    def target_d(self) -> int:
        return self.delays.target_d

    @property
    def target_delta(self) -> int:
        return self.schedule.target_delta

    def crashes_at(self, t: int) -> Set[int]:
        return self.crashes.crashes_at(t)

    def schedule_at(self, t: int, alive: FrozenSet[int]) -> Set[int]:
        return self.schedule.scheduled_at(t, alive) & alive

    def assign_delay(self, msg: Message) -> int:
        return self.delays.assign(msg)

    def delay_outbox(self, outbox: Sequence[Message], t: int) -> None:
        self.delays.stamp(outbox, t)

    def has_pending_events(self, t: int) -> bool:
        return self.crashes.has_pending(t)

    def next_event_at(self, t: int) -> Optional[int]:
        """Next scheduled step or crash, whichever comes first.

        Both composed plans are oblivious, so the answer is exact; the
        time-leap engine jumps over the gap. ``None`` (plan schedules
        nothing ever again *and* no crash pending) degrades to stepwise
        execution, which is the degenerate starved-forever case — the
        stepwise loop's stall detection handles it as before.
        """
        sim = getattr(self, "sim", None)
        if sim is None:
            return None
        sched = self.schedule.next_event_at(t, sim.alive_pids)
        crash = self.crashes.next_event_at(t)
        if sched is None:
            return crash
        if crash is None:
            return sched
        return min(sched, crash)
