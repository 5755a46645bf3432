"""Adaptive adversaries: strategies that react to the execution.

An adaptive adversary sees everything — process state, queued messages, past
coin flips — and chooses schedules, delays and crashes on the fly. Theorem 1
shows this power makes gossip expensive; :mod:`repro.adversary.lower_bound`
implements that specific strategy. This module provides the base class plus
smaller adaptive strategies used in tests and ablations.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Sequence, Set

from ..sim.message import Message
from .base import Adversary


class AdaptiveAdversary(Adversary):
    """Base for adversaries that inspect the attached simulation.

    Subclasses may read ``self.sim`` freely (the engine attaches it before
    the first step). Defaults: schedule everyone, delay 1, no crashes —
    subclasses override the dimensions they manipulate.
    """

    def crashes_at(self, t: int) -> Set[int]:
        return set()

    def schedule_at(self, t: int, alive: FrozenSet[int]) -> Set[int]:
        return set(alive)

    def assign_delay(self, msg: Message) -> int:
        return 1

    def has_pending_events(self, t: int) -> bool:
        # Adaptive strategies may always still act; keep the engine stepping
        # until its step limit unless a subclass knows better.
        return True


class ScriptedAdversary(AdaptiveAdversary):
    """An adversary whose behaviour is swapped phase-by-phase by a driver.

    The Theorem 1 orchestration runs the execution in phases ("run S1 at
    full speed", "starve S2", "deliver nothing for f/2 steps", ...); between
    phases the driver mutates :attr:`scheduled`, :attr:`delay` and pushes
    crash events. Within a phase the behaviour is fixed.

    The driver also names the senders whose traffic it reads
    (:meth:`count_sends`): who sent to whom is the adaptive adversary's
    own observation, so it is counted here, on the way through the delay
    layer, and nowhere else.
    """

    def __init__(self) -> None:
        self.scheduled: Optional[Set[int]] = None  # None = everyone alive
        self.delay = 1
        self._crash_queue: Set[int] = set()
        self.suppress_delivery_until: Optional[int] = None
        #: Messages each counted sender has sent, in total and per
        #: destination (destinations in first-send order).
        self.sent: Dict[int, int] = {}
        self.sent_to: Dict[int, Dict[int, int]] = {}

    def count_sends(self, pids: Iterable[int]) -> None:
        """Count, from now on, what each of ``pids`` sends."""
        self.sent = {pid: 0 for pid in pids}
        self.sent_to = {pid: {} for pid in self.sent}

    def queue_crashes(self, pids) -> None:
        self._crash_queue |= set(pids)

    def crashes_at(self, t: int) -> Set[int]:
        fired, self._crash_queue = self._crash_queue, set()
        return fired

    def schedule_at(self, t: int, alive: FrozenSet[int]) -> Set[int]:
        if self.scheduled is None:
            return set(alive)
        return set(self.scheduled) & alive

    def assign_delay(self, msg: Message) -> int:
        if self.suppress_delivery_until is not None:
            # Hold the message past the horizon of the current phase: the
            # adversary is exercising its right to a large d.
            return max(self.delay, self.suppress_delivery_until - msg.sent_at)
        return self.delay

    def delay_outbox(self, outbox: Sequence[Message], t: int) -> None:
        super().delay_outbox(outbox, t)
        for msg in outbox:
            sent_to = self.sent_to.get(msg.src)
            if sent_to is not None:
                self.sent[msg.src] += 1
                sent_to[msg.dst] = sent_to.get(msg.dst, 0) + 1

    def clone_into(self, sim) -> "ScriptedAdversary":
        """O(state) copy: the phase script is a few scalars and pid sets.

        This is the hot path of the Theorem 1 Phase B sampler, which forks
        the simulation once per Monte-Carlo sample.
        """
        dup = ScriptedAdversary()
        dup.scheduled = None if self.scheduled is None else set(self.scheduled)
        dup.delay = self.delay
        dup._crash_queue = set(self._crash_queue)
        dup.suppress_delivery_until = self.suppress_delivery_until
        dup.sent = dict(self.sent)
        dup.sent_to = {pid: dict(to) for pid, to in self.sent_to.items()}
        dup.sim = sim
        return dup


class TargetedDelayAdversary(AdaptiveAdversary):
    """Delays every message touching a victim set by ``d``; others are fast.

    A simple adaptive stress used in tests: the adversary watches who talks
    to the victims and slows exactly those links.
    """

    def __init__(self, victims: Set[int], d: int) -> None:
        self.victims = frozenset(victims)
        self.d = d

    def assign_delay(self, msg: Message) -> int:
        if msg.src in self.victims or msg.dst in self.victims:
            return self.d
        return 1


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
