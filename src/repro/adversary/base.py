"""Adversary interface.

The adversary is the other player in the paper's game: at every time step it
chooses which processes crash and which are scheduled, and it assigns each
sent message a delay. An *oblivious* adversary fixes all of these choices
before the execution (independently of the algorithm's coin flips); an
*adaptive* adversary may inspect the full execution state.
"""

from __future__ import annotations

import copy
import weakref
from abc import ABC, abstractmethod
from typing import FrozenSet, Optional, Sequence, Set

from ..sim.message import Message


class Adversary(ABC):
    """Base contract consumed by :class:`repro.sim.Simulation`."""

    #: True when ``target_d`` / ``target_delta`` are hard bounds that every
    #: message delay and live scheduling gap of the execution respects.
    #: The bound-consistency invariant (:mod:`repro.sim.invariants`) only
    #: checks adversaries that declare this; adversaries whose targets are
    #: eventual (GST) or adaptive leave it False.
    declares_bounds = False

    #: True when :meth:`delay_outbox` also stamps
    #: :class:`~repro.sim.message.FanOut` records (``sent_at`` and one
    #: delay per destination). An adversary that leaves it False is handed
    #: every fan-out expanded into its messages, so it sees nothing but
    #: :class:`Message` objects.
    stamps_fanouts = False

    _sim: Optional[weakref.ref] = None

    @property
    def sim(self):
        """The simulation this adversary is attached to, or ``None``.

        Held weakly: ``sim.adversary.sim`` would otherwise be the one
        reference cycle of an un-instrumented run, and a finished
        simulation would wait for the cycle collector to be freed.
        """
        ref = self._sim
        return ref and ref()

    @sim.setter
    def sim(self, sim) -> None:
        self._sim = weakref.ref(sim)

    def on_attach(self, sim) -> None:
        """Called once when the simulation is constructed."""
        self.sim = sim

    def clone_into(self, sim) -> "Adversary":
        """An independent copy of this adversary bound to a forked ``sim``.

        Part of the engine's snapshot protocol. The default is a deepcopy
        (the weak back-reference is atomic to it, so the simulation is not
        dragged along) rebound to the fork. Subclasses with known-small or
        immutable state override this with an O(state) copy.
        """
        dup = copy.deepcopy(self)
        dup.sim = sim
        return dup

    @abstractmethod
    def crashes_at(self, t: int) -> Set[int]:
        """Pids to crash at the start of step ``t`` (budget enforced by engine)."""

    @abstractmethod
    def schedule_at(self, t: int, alive: FrozenSet[int]) -> Set[int]:
        """Pids (subset of ``alive``) that take a local step at time ``t``."""

    @abstractmethod
    def assign_delay(self, msg: Message) -> int:
        """Delay (>= 1) for a just-sent message; determines the execution's d."""

    def delay_outbox(self, outbox: Sequence[Message], t: int) -> None:
        """Stamp ``sent_at = t`` and a delay on every message of one
        process-step's outbox; the engine's one call into the delay layer.

        Implement :meth:`assign_delay`: this default asks it once per
        message, in outbox order, with ``sent_at`` already set. Override
        the batch call only to compute those same delays, in that same
        order, more cheaply (as :class:`ObliviousAdversary` does) — and
        then anything that wraps or subclasses the adversary to change
        ``assign_delay`` must bring the batch call back to this loop.
        """
        assign_delay = self.assign_delay
        for msg in outbox:
            msg.sent_at = t
            msg.delay = int(assign_delay(msg))

    def has_pending_events(self, t: int) -> bool:
        """True if the adversary may still act after time ``t``.

        The engine uses this to stop early when the system is stalled (empty
        network, all processes quiescent): if no crash can still fire, nothing
        will ever change. Oblivious adversaries answer from their crash plan;
        the conservative default is False (no pending events).

        Contract (relied on by the time-leap engine): the truth value is
        monotone non-increasing in ``t`` — once the adversary has nothing
        pending, it never regains pending events.
        """
        return False

    def next_event_at(self, t: int) -> Optional[int]:
        """Earliest time ``>= t`` at which anything can happen, or ``None``.

        The time-leap engine asks this before each step. A return of
        ``t' > t`` asserts that every step in ``[t, t')`` is inert — no
        pid scheduled, no crash fired — *and* that
        :meth:`has_pending_events` cannot change value strictly inside
        the gap, so the engine may jump ``sim.now`` straight to ``t'``
        with bit-identical results. ``None`` means "cannot predict",
        forcing stepwise execution: the conservative default, and the
        correct answer for adaptive adversaries whose choices depend on
        execution state the engine is about to produce. Returning ``t``
        ("something may happen right now") is always safe.
        """
        return None
