"""Seeded fault injectors: deliberate violations of the execution model.

Each injector breaks one specific promise of the paper's model — rumor
sets only grow, crashed processes stay silent, declared (d, δ) bound the
execution, decisions are irrevocable, runs terminate — in a way the
matching invariant observer (:mod:`repro.sim.invariants`) or the strict
run mode (:class:`~repro.sim.errors.IncompleteRunError`) must catch.
The chaos campaign (:mod:`repro.faults.campaign`) runs the canonical
cells with each injector armed and asserts exactly that.

Injectors come in three mechanical flavors:

* **state tamperers** — observers that mutate process state out-of-band
  at a trigger step (rumor loss, foreign rumors, decision flips);
* **adversary wrappers** — proxies around the built adversary that break
  its declared plan (delay bursts, scheduling stalls, silent stalls)
  while delegating everything else via ``__getattr__``;
* **run saboteurs** — mutations of the built run itself (step-budget
  exhaustion).

Every injector is seeded: victims and trigger details come from the
``random.Random`` handed to :meth:`FaultInjector.arm`, so campaigns are
reproducible. An injector listed in :data:`FAULTS` is available to the
campaign and the ``repro chaos`` CLI.
"""

from __future__ import annotations

from typing import Optional, Tuple

from ..adversary.base import Adversary
from ..sim.errors import Registry
from ..sim.events import Observer
from ..sim.message import Message

__all__ = [
    "FAULTS",
    "DecisionFlipFault",
    "DelayBurstFault",
    "FaultInjector",
    "ForeignRumorFault",
    "ForgedMessageFault",
    "ForgedMessageLiveFault",
    "MessageDuplicationFault",
    "RumorLossFault",
    "ScheduleStallFault",
    "SilentStallFault",
    "StepBudgetFault",
]


class FaultInjector(Observer):
    """Base: a seeded, armable fault.

    Class attributes describe the fault's contract:

    ``name``
        Registry key and report label.
    ``kind``
        ``"gossip"``, ``"consensus"`` or ``"any"`` — which run kinds the
        fault applies to.
    ``expects``
        Invariant names (:class:`~repro.sim.errors.InvariantViolation.
        invariant` values) any of which count as *detecting* this fault;
        the special value ``"liveness"`` means detection is a strict-mode
        :class:`~repro.sim.errors.IncompleteRunError` instead.  Empty
        means the model is expected to *tolerate* the fault (the
        campaign's false-positive control).
    ``needs_crashes``
        True when the fault only makes sense in a run with a crash
        workload (the forged-message fault needs a crashed sender).
    """

    name = "fault"
    kind = "any"
    expects: Tuple[str, ...] = ()
    needs_crashes = False

    def __init__(self, trigger_step: int = 2) -> None:
        self.trigger_step = trigger_step
        self.sim = None
        self.rng = None
        self.fired_at: Optional[int] = None

    @property
    def fired(self) -> bool:
        return self.fired_at is not None

    def arm(self, built, rng) -> None:
        """Attach this fault to a :class:`~repro.spec.builder.BuiltRun`.

        Must be called *after* any invariant observers are attached, so
        invariants see each step's legitimate state before the fault
        tampers with it.
        """
        self.rng = rng
        built.sim.add_observer(self)

    def on_attach(self, engine) -> None:
        self.sim = engine

    def _inject(self, msg: Message) -> None:
        """Put ``msg`` straight into the network, bypassing the send path
        (no delay assignment, no send accounting, no ``send`` event)."""
        self.sim.network.enqueue([msg], self.sim.alive_pids)

    def _pick_alive(self) -> Optional[int]:
        pids = sorted(self.sim.alive_pids)
        if not pids:
            return None
        return pids[self.rng.randrange(len(pids))]


# -- state tamperers -------------------------------------------------------- #

class RumorLossFault(FaultInjector):
    """Clear one collected rumor bit from a victim's rumor set.

    Violates gossip *integrity* (collected sets only grow); the
    :class:`~repro.sim.invariants.GossipValidityInvariant` must raise
    ``gossip-integrity`` at the victim's next scheduled step.
    """

    name = "rumor-loss"
    kind = "gossip"
    expects = ("gossip-integrity",)

    def on_step_end(self, t: int) -> None:
        if self.fired or t < self.trigger_step:
            return
        victim = self._pick_alive()
        if victim is None:
            return
        rumors = self.sim.processes[victim].algorithm.rumors
        if rumors.mask == 0:
            return
        rumors.mask &= ~(rumors.mask & -rumors.mask)  # drop lowest set bit
        self.fired_at = t


class ForeignRumorFault(FaultInjector):
    """Set a rumor bit outside the population on a victim.

    Violates gossip *validity* (no rumor nobody started with); detected
    as ``gossip-validity`` at the victim's next scheduled step.
    """

    name = "foreign-rumor"
    kind = "gossip"
    expects = ("gossip-validity",)

    def on_step_end(self, t: int) -> None:
        if self.fired or t < self.trigger_step:
            return
        victim = self._pick_alive()
        if victim is None:
            return
        population = len(self.sim.processes)
        self.sim.processes[victim].algorithm.rumors.mask |= 1 << population
        self.fired_at = t


class ForgedMessageFault(FaultInjector):
    """Enqueue a message claiming a crashed sender, after its crash.

    Violates crash-consistency (a crashed process is silent forever);
    detected as ``crash-consistency`` when the message is delivered and
    the deliver-side forged-traffic net sees ``sent_at`` at or after the
    sender's crash.
    """

    name = "forged-message"
    kind = "any"
    expects = ("crash-consistency",)
    needs_crashes = True

    def __init__(self, trigger_step: int = 2) -> None:
        super().__init__(trigger_step)
        self._crashed: Optional[int] = None

    def on_crash(self, t: int, pid: int) -> None:
        if self._crashed is None:
            self._crashed = pid

    def on_step_end(self, t: int) -> None:
        if self.fired or self._crashed is None:
            return
        dst = self._pick_alive()
        if dst is None:
            return
        self._inject(Message(
            src=self._crashed, dst=dst, payload=None, kind="forged",
            sent_at=t, delay=1,
        ))
        self.fired_at = t


class ForgedMessageLiveFault(FaultInjector):
    """Enqueue a message claiming a *live* sender, bypassing the send path.

    Generalizes :class:`ForgedMessageFault`: the spoofed sender is alive,
    so the crash-consistency net cannot see anything wrong — the message
    is caught by the :class:`~repro.sim.invariants.TrafficProvenanceInvariant`
    deliver-side net instead, whose send-path ledger has no record of the
    forged ``(src, dst, kind, sent_at)`` signature.
    """

    name = "forged-message-live"
    kind = "any"
    expects = ("traffic-provenance",)

    def on_step_end(self, t: int) -> None:
        if self.fired or t < self.trigger_step:
            return
        src = self._pick_alive()
        dst = self._pick_alive()
        if src is None or dst is None:
            return
        if src == dst:
            dst = (dst + 1) % len(self.sim.processes)
            if dst not in self.sim.alive_pids:
                return
        self._inject(Message(
            src=src, dst=dst, payload=None, kind="forged",
            sent_at=t, delay=1,
        ))
        self.fired_at = t


class DecisionFlipFault(FaultInjector):
    """Overwrite a consensus decision after it was made.

    Violates irrevocability; detected as ``consensus-irrevocability`` at
    the victim's next scheduled step (the invariant records each decision
    the step it is made, before this fault's later hook can tamper).
    """

    name = "decision-flip"
    kind = "consensus"
    expects = ("consensus-irrevocability",)

    def on_step_end(self, t: int) -> None:
        if self.fired:
            return
        for pid in sorted(self.sim.alive_pids):
            algorithm = self.sim.processes[pid].algorithm
            if getattr(algorithm, "decided", None) is not None:
                algorithm.decided = ("corrupt", algorithm.decided)
                self.fired_at = t
                return


# -- adversary wrappers ----------------------------------------------------- #

class _AdversaryProxy:
    """Delegating wrapper: behaves as the inner adversary except where a
    subclass overrides. ``declares_bounds``/``target_d``/``target_delta``
    pass through, so the bound-consistency invariant primes from the
    *declared* plan while the wrapper quietly breaks it."""

    def __init__(self, inner) -> None:
        self._inner = inner

    def __getattr__(self, name):
        return getattr(self._inner, name)

    # Forwarded, the batch call would run the inner adversary's own delay
    # pass and never reach a subclass's ``assign_delay``; the base default
    # expands the outbox and asks it per message.
    delay_outbox = Adversary.delay_outbox


class _BurstDelays(_AdversaryProxy):
    def __init__(self, inner, burst_send: int, boost: int) -> None:
        super().__init__(inner)
        self._burst_send = burst_send
        self._boost = boost
        self._sends = 0
        self.burst_delay: Optional[int] = None

    def assign_delay(self, msg) -> int:
        delay = self._inner.assign_delay(msg)
        self._sends += 1
        if self._sends == self._burst_send:
            self.burst_delay = self._inner.target_d + self._boost
            return self.burst_delay
        return delay


class DelayBurstFault(FaultInjector):
    """Assign one message a delay above the adversary's declared ``d``.

    Violates the declared delay bound; detected as ``bound-d`` at the
    send event itself.
    """

    name = "delay-burst"
    kind = "any"
    expects = ("bound-d",)

    def __init__(self, boost: int = 2, max_burst_send: int = 8) -> None:
        super().__init__()
        self.boost = boost
        self.max_burst_send = max_burst_send
        self._proxy: Optional[_BurstDelays] = None

    def arm(self, built, rng) -> None:
        self.rng = rng
        burst_send = 1 + rng.randrange(self.max_burst_send)
        self._proxy = _BurstDelays(built.sim.adversary, burst_send,
                                   self.boost)
        built.sim.adversary = self._proxy

    @property
    def fired(self) -> bool:
        return (self._proxy is not None
                and self._proxy.burst_delay is not None)


class _StallSchedule(_AdversaryProxy):
    def __init__(self, inner, victim: int, start: int, end: int) -> None:
        super().__init__(inner)
        self._victim = victim
        self._start = start
        self._end = end

    def schedule_at(self, t, alive):
        scheduled = set(self._inner.schedule_at(t, alive))
        if self._start <= t < self._end:
            scheduled.discard(self._victim)
        return scheduled


class ScheduleStallFault(FaultInjector):
    """Withhold scheduling from one victim for more than δ steps.

    Violates the declared scheduling-gap bound; detected as
    ``bound-delta`` when the victim is finally scheduled again.
    """

    name = "schedule-stall"
    kind = "any"
    expects = ("bound-delta",)

    def arm(self, built, rng) -> None:
        self.rng = rng
        sim = built.sim
        victim = rng.randrange(len(sim.processes))
        delta = getattr(sim.adversary, "target_delta", 1)
        start = self.trigger_step
        # Exclude for 2δ+1 steps: whatever the victim's slot pattern, the
        # realized gap around the window exceeds δ.
        end = start + 2 * delta + 1
        sim.adversary = _StallSchedule(sim.adversary, victim, start, end)
        self.fired_at = start


class _ScheduleNobody(_AdversaryProxy):
    def __init__(self, inner, start: int) -> None:
        super().__init__(inner)
        self._start = start

    def schedule_at(self, t, alive):
        if t >= self._start:
            return set()
        return self._inner.schedule_at(t, alive)


class SilentStallFault(FaultInjector):
    """Stop scheduling everyone: the run can never finish.

    A liveness fault — no invariant fires (nothing *wrong* ever executes);
    a ``strict=True`` run must raise
    :class:`~repro.sim.errors.IncompleteRunError` instead of returning a
    quietly incomplete result.
    """

    name = "silent-stall"
    kind = "any"
    expects = ("liveness",)

    #: Stalled runs burn empty steps to the limit; cap it for campaigns.
    step_cap = 400

    def arm(self, built, rng) -> None:
        self.rng = rng
        built.sim.adversary = _ScheduleNobody(
            built.sim.adversary, self.trigger_step
        )
        built.max_steps = min(built.max_steps, self.step_cap)
        self.fired_at = self.trigger_step


# -- run saboteurs ---------------------------------------------------------- #

class StepBudgetFault(FaultInjector):
    """Exhaust the step budget: the limit is hit before completion.

    Like :class:`SilentStallFault`, a liveness fault detected by strict
    mode's :class:`~repro.sim.errors.IncompleteRunError`.
    """

    name = "step-budget"
    kind = "any"
    expects = ("liveness",)

    def __init__(self, budget: int = 3) -> None:
        super().__init__()
        self.budget = budget

    def arm(self, built, rng) -> None:
        self.rng = rng
        built.max_steps = min(built.max_steps, self.budget)
        self.fired_at = 0


# -- tolerance toggles ------------------------------------------------------ #

class MessageDuplicationFault(FaultInjector):
    """Duplicate one in-flight message (out-of-model, but benign).

    The paper's algorithms merge idempotently, so duplication must NOT
    trip any invariant and the run must still complete — this is the
    campaign's tolerance control for the message substrate.
    """

    name = "message-duplication"
    kind = "gossip"
    expects = ()

    def on_send(self, t: int, msg) -> None:
        if self.fired or t < self.trigger_step:
            return
        self._inject(Message(
            src=msg.src, dst=msg.dst, payload=msg.payload, kind=msg.kind,
            sent_at=msg.sent_at, delay=msg.delay,
        ))
        self.fired_at = t


# -- registry ----------------------------------------------------------------#

FAULTS = Registry("fault", {cls.name: cls for cls in (
    RumorLossFault,
    ForeignRumorFault,
    ForgedMessageFault,
    ForgedMessageLiveFault,
    DecisionFlipFault,
    DelayBurstFault,
    ScheduleStallFault,
    SilentStallFault,
    StepBudgetFault,
    MessageDuplicationFault,
)})
