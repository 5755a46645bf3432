"""Runtime safety invariants: paper properties checked *while* a run runs.

The paper's guarantees are safety properties of executions under an
adversary; the result post-processors (``repro.core.properties``,
``repro.consensus.properties``) only examine final states. The observers
here validate the same properties continuously on the engine's event bus
(:mod:`repro.sim.events`), so a violating execution fails at the violating
step — with the offending pid and a state digest — rather than producing a
quietly-wrong table row millions of steps later.

Invariant catalog (see ``docs/robustness.md`` for the full contract):

- :class:`GossipValidityInvariant` — *validity*: no process ever holds a
  rumor that no process started with; *integrity*: rumor sets only grow.
- :class:`CrashConsistencyInvariant` — a crashed process is never
  scheduled, never sends, never receives, and no message it "sent" at or
  after its crash time is ever delivered.
- :class:`BoundConsistencyInvariant` — realized message delays stay ≤ the
  adversary's declared ``d`` and live scheduling gaps stay ≤ its declared
  ``δ``; only checked for adversaries that set ``declares_bounds``
  (oblivious plans), since GST/adaptive adversaries break their targets by
  design.
- :class:`ConsensusInvariant` — *agreement*: all decisions are equal;
  *validity*: every decision is some process's initial value;
  *irrevocability*: a decision, once made, never changes. Also the
  consensus wire net: a sender voting two different values for one
  (phase, round) is *equivocation*; a vote or decision outside the value
  universe (initial values ∪ {0, 1}) is *tampered state* entering an
  honest process.
- :class:`TrafficProvenanceInvariant` — every delivered message was
  emitted by the process the engine scheduled (``src`` honest) and
  actually passed through the send path (no out-of-band injection).

Every check raises :class:`~repro.sim.errors.InvariantViolation` carrying
the invariant name, step, pid and a :func:`state_digest` of the simulation.

Cost model: the invariants are ordinary opt-in observers — a run without
them stays on the engines' zero-observer fast path and pays nothing. With
them, per-event work is O(1) per message/schedule event plus O(scheduled)
mask comparisons per step.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional, Sequence

from .errors import InvariantViolation
from .events import Observer

__all__ = [
    "BoundConsistencyInvariant",
    "ConsensusInvariant",
    "CrashConsistencyInvariant",
    "GossipValidityInvariant",
    "Invariant",
    "TrafficProvenanceInvariant",
    "default_invariants",
    "state_digest",
]


def state_digest(sim) -> Dict[str, Any]:
    """A small, cheap snapshot of the simulation for violation reports.

    Scalar coordinates come through verbatim; the per-process algorithm
    summaries are folded into one short stable hash so the digest stays a
    few dozen bytes at any ``n``.
    """
    summaries = ";".join(
        f"{pid}:{sorted(handle.algorithm.summary().items())}"
        for pid, handle in sorted(sim.processes.items())
    )
    return {
        "now": sim.now,
        "alive": len(sim.alive_pids),
        "crashes": sim.metrics.crashes,
        "in_flight": sim.network.in_flight,
        "messages_sent": sim.metrics.messages_sent,
        "state_sha": hashlib.sha256(
            summaries.encode("utf-8")
        ).hexdigest()[:16],
    }


class Invariant(Observer):
    """Base for invariant observers: holds the engine ref and the raiser.

    Invariants prime their baselines lazily at the first ``step_begin``
    (the engine is fully constructed by then, whereas ``on_attach`` fires
    mid-``__init__``).
    """

    name = "invariant"

    def __init__(self) -> None:
        self.sim = None

    def on_attach(self, engine) -> None:
        self.sim = engine

    def fail(self, message: str, *, name: Optional[str] = None,
             t: Optional[int] = None, pid: Optional[int] = None) -> None:
        raise InvariantViolation(
            name or self.name,
            message,
            step=self.sim.now if t is None else t,
            pid=pid,
            digest=state_digest(self.sim),
        )


class GossipValidityInvariant(Invariant):
    """Gossip validity and integrity, per scheduled process per step.

    Tracks the rumor mask of every process exposing one. A process's mask
    is checked both when it is about to step (catching out-of-band
    mutation while it was idle) and after it stepped (catching violations
    introduced by its own step):

    - a bit outside the union of *initial* masks is a rumor nobody
      started with → ``gossip-validity``;
    - a bit present before and absent now is a lost rumor →
      ``gossip-integrity`` (collected sets only grow).
    """

    name = "gossip-validity"

    def __init__(self) -> None:
        super().__init__()
        self._valid_mask: Optional[int] = None
        self._last_masks: Dict[int, int] = {}
        self._stepped: List[int] = []

    def _prime(self) -> None:
        masks: Dict[int, int] = {}
        self._valid_mask = 0
        for pid, handle in self.sim.processes.items():
            mask = getattr(handle.algorithm, "rumor_mask", None)
            if mask is not None:
                self._valid_mask |= mask
                masks[pid] = mask
        self._last_masks = masks

    def _check(self, pid: int, t: int) -> None:
        mask = self.sim.processes[pid].algorithm.rumor_mask
        last = self._last_masks[pid]
        foreign = mask & ~self._valid_mask
        if foreign:
            self.fail(
                f"process holds rumor bit(s) {_bits(foreign)} that no "
                "process started with",
                name="gossip-validity", t=t, pid=pid,
            )
        lost = last & ~mask
        if lost:
            self.fail(
                f"rumor set shrank: bit(s) {_bits(lost)} were collected "
                "and are now gone",
                name="gossip-integrity", t=t, pid=pid,
            )
        self._last_masks[pid] = mask

    def on_step_begin(self, t: int) -> None:
        if self._valid_mask is None:
            self._prime()
        self._stepped.clear()

    def on_schedule(self, t: int, pid: int) -> None:
        if pid in self._last_masks:
            self._check(pid, t)
            self._stepped.append(pid)

    def on_step_end(self, t: int) -> None:
        for pid in self._stepped:
            self._check(pid, t)
        self._stepped.clear()

    def on_crash(self, t: int, pid: int) -> None:
        self._last_masks.pop(pid, None)


class CrashConsistencyInvariant(Invariant):
    """Crashes are permanent and total: no post-crash activity, ever.

    Records every crash the engine reports and then rejects any of:
    a second crash of the same pid, a scheduled step or a delivery for a
    crashed pid, a send by a crashed pid, and — the deliver-side net that
    also catches out-of-model forged traffic — a delivered message whose
    sender had already crashed when the message claims to have been sent.
    """

    name = "crash-consistency"

    def __init__(self) -> None:
        super().__init__()
        self._crashed_at: Dict[int, int] = {}

    def on_crash(self, t: int, pid: int) -> None:
        if pid in self._crashed_at:
            self.fail(
                f"process crashed twice (first at step "
                f"{self._crashed_at[pid]})", t=t, pid=pid,
            )
        self._crashed_at[pid] = t

    def on_schedule(self, t: int, pid: int) -> None:
        if pid in self._crashed_at:
            self.fail(
                f"crashed process (at step {self._crashed_at[pid]}) was "
                "scheduled", t=t, pid=pid,
            )

    def on_send(self, t: int, msg) -> None:
        if msg.src in self._crashed_at:
            self.fail(
                f"crashed process (at step {self._crashed_at[msg.src]}) "
                f"sent a {msg.kind!r} message to {msg.dst}",
                t=t, pid=msg.src,
            )

    def on_deliver(self, t: int, pid: int, inbox: Sequence) -> None:
        if pid in self._crashed_at:
            self.fail(
                f"delivery to crashed process (at step "
                f"{self._crashed_at[pid]})", t=t, pid=pid,
            )
        for msg in inbox:
            crash_time = self._crashed_at.get(msg.src)
            if crash_time is not None and msg.sent_at >= crash_time:
                self.fail(
                    f"delivered a {msg.kind!r} message stamped sent_at="
                    f"{msg.sent_at} by process {msg.src}, which crashed "
                    f"at step {crash_time}", t=t, pid=msg.src,
                )


class TrafficProvenanceInvariant(Invariant):
    """Every delivered message really left its claimed sender in-band.

    Two nets:

    - *send-side*: a message emitted during pid ``p``'s step must carry
      ``src == p`` — a mismatch is identity forgery (an injector
      spoofing ``src`` on the send path);
    - *deliver-side*: every delivered message's ``(src, dst, kind,
      sent_at)`` signature must have been seen on the send path — a miss
      is out-of-band injection straight into the network (forged traffic
      from live senders that the crash-consistency net cannot see).

    The signature deliberately omits the uid: in-band duplication (the
    ``message-duplication`` chaos fault re-enqueues a copy under a fresh
    uid) is delivery-layer noise the algorithms must tolerate, not
    forgery, so it passes.
    """

    name = "traffic-provenance"

    def __init__(self) -> None:
        super().__init__()
        self._stepping: Optional[int] = None
        self._seen: set = set()

    def on_schedule(self, t: int, pid: int) -> None:
        self._stepping = pid

    def on_send(self, t: int, msg) -> None:
        if self._stepping is not None and msg.src != self._stepping:
            self.fail(
                f"identity forgery: pid {self._stepping} emitted a "
                f"{msg.kind!r} message claiming src={msg.src}",
                t=t, pid=self._stepping,
            )
        self._seen.add((msg.src, msg.dst, msg.kind, msg.sent_at))

    def on_deliver(self, t: int, pid: int, inbox: Sequence) -> None:
        for msg in inbox:
            if (msg.src, msg.dst, msg.kind, msg.sent_at) not in self._seen:
                self.fail(
                    f"out-of-band message: delivered {msg.kind!r} "
                    f"{msg.src}->{msg.dst} stamped sent_at={msg.sent_at} "
                    "never passed through the send path",
                    t=t, pid=msg.src,
                )


class BoundConsistencyInvariant(Invariant):
    """Declared (d, δ) really bound the execution the adversary produces.

    For adversaries that set ``declares_bounds`` (oblivious plans), every
    assigned message delay must stay ≤ ``target_d`` and every live
    process's scheduling gap must stay ≤ ``target_delta`` (counting the
    gap from time 0 to the first step, as the paper and
    :class:`~repro.sim.metrics.Metrics` both do). Explicit ``d``/``delta``
    constructor arguments force checking against those values regardless
    of what the adversary declares.
    """

    name = "bound-consistency"

    def __init__(self, d: Optional[int] = None,
                 delta: Optional[int] = None) -> None:
        super().__init__()
        self._explicit_d = d
        self._explicit_delta = delta
        self._d: Optional[int] = None
        self._delta: Optional[int] = None
        self._primed = False
        self._last_scheduled: Dict[int, int] = {}

    def _prime(self) -> None:
        self._primed = True
        self._d = self._explicit_d
        self._delta = self._explicit_delta
        adversary = self.sim.adversary
        if getattr(adversary, "declares_bounds", False):
            if self._d is None:
                self._d = getattr(adversary, "target_d", None)
            if self._delta is None:
                self._delta = getattr(adversary, "target_delta", None)

    def on_step_begin(self, t: int) -> None:
        if not self._primed:
            self._prime()

    def on_send(self, t: int, msg) -> None:
        if self._d is not None and msg.delay > self._d:
            self.fail(
                f"message {msg.src}->{msg.dst} was assigned delay "
                f"{msg.delay} > declared d={self._d}",
                name="bound-d", t=t, pid=msg.src,
            )

    def on_schedule(self, t: int, pid: int) -> None:
        if self._delta is None:
            return
        previous = self._last_scheduled.get(pid)
        gap = t - previous if previous is not None else t + 1
        if gap > self._delta:
            self.fail(
                f"scheduling gap {gap} > declared delta={self._delta} "
                + (f"(last step at {previous})" if previous is not None
                   else "(never scheduled)"),
                name="bound-delta", t=t, pid=pid,
            )
        self._last_scheduled[pid] = t

    def on_crash(self, t: int, pid: int) -> None:
        self._last_scheduled.pop(pid, None)


class ConsensusInvariant(Invariant):
    """Canetti–Rabin / Ben-Or safety: agreement, validity, irrevocability.

    Works over any algorithm exposing ``decided`` (``None`` until the
    process decides) and an ``estimate`` whose construction-time value is
    the process's initial value. Initial values are captured at the first
    step (before any message exchange can have changed an estimate).

    Two wire-side nets arm on Ben-Or traffic:

    - ``consensus-equivocation`` — one sender delivered two different
      values for the same (phase, round), or two different decisions;
    - ``consensus-integrity`` — a delivered vote or decision lies outside
      the value universe (initial values ∪ {0, 1, ⊥}), i.e. tampered
      state about to enter a process's vote table.

    Ben-Or never trips either net (one broadcast per phase per round,
    values drawn from estimates and coins), so a trip is traffic that
    did not come from the algorithm.
    """

    name = "consensus-agreement"

    #: Ben-Or wire kinds the deliver-side nets understand. String
    #: literals to keep the substrate free of a consensus-layer import.
    _VOTE_KIND = "ben-or"
    _DECIDE_KIND = "ben-or-decide"

    def __init__(self) -> None:
        super().__init__()
        self._primed = False
        self._initial_values: List[Any] = []
        self._decisions: Dict[int, Any] = {}
        self._stepped: List[int] = []
        self._universe: List[Any] = []
        self._vote_values: Dict[Any, Any] = {}
        self._decide_values: Dict[int, Any] = {}

    def _prime(self) -> None:
        self._primed = True
        for handle in self.sim.processes.values():
            algorithm = handle.algorithm
            if hasattr(algorithm, "estimate"):
                self._initial_values.append(algorithm.estimate)
        self._universe = list(self._initial_values) + [0, 1, None]

    def _check(self, pid: int, t: int) -> None:
        algorithm = self.sim.processes[pid].algorithm
        value = getattr(algorithm, "decided", None)
        if pid in self._decisions:
            if value != self._decisions[pid]:
                self.fail(
                    f"decision changed from {self._decisions[pid]!r} to "
                    f"{value!r}",
                    name="consensus-irrevocability", t=t, pid=pid,
                )
            return
        if value is None:
            return
        if self._initial_values and not any(
            value == initial for initial in self._initial_values
        ):
            self.fail(
                f"decided {value!r}, which is no process's initial value",
                name="consensus-validity", t=t, pid=pid,
            )
        for other_pid, other_value in self._decisions.items():
            if other_value != value:
                self.fail(
                    f"decided {value!r} but process {other_pid} decided "
                    f"{other_value!r}",
                    name="consensus-agreement", t=t, pid=pid,
                )
        self._decisions[pid] = value

    def on_step_begin(self, t: int) -> None:
        if not self._primed:
            self._prime()
        self._stepped.clear()

    def on_schedule(self, t: int, pid: int) -> None:
        self._check(pid, t)
        self._stepped.append(pid)

    def on_step_end(self, t: int) -> None:
        for pid in self._stepped:
            self._check(pid, t)
        self._stepped.clear()

    # -- the wire-side nets -------------------------------------------- #

    def _in_universe(self, value: Any) -> bool:
        return any(value == allowed for allowed in self._universe)

    def on_deliver(self, t: int, pid: int, inbox: Sequence) -> None:
        for msg in inbox:
            kind = msg.kind
            if kind == self._VOTE_KIND:
                payload = msg.payload
                if not (isinstance(payload, tuple) and len(payload) == 3):
                    self.fail(
                        f"malformed {kind!r} vote payload {payload!r}",
                        name="consensus-integrity", t=t, pid=msg.src,
                    )
                phase, rnd, value = payload
                if not self._in_universe(value):
                    self.fail(
                        f"vote value {value!r} for ({phase!r}, round "
                        f"{rnd}) is outside the value universe",
                        name="consensus-integrity", t=t, pid=msg.src,
                    )
                key = (msg.src, phase, rnd)
                if key in self._vote_values:
                    if self._vote_values[key] != value:
                        self.fail(
                            f"equivocation: voted both "
                            f"{self._vote_values[key]!r} and {value!r} "
                            f"for ({phase!r}, round {rnd})",
                            name="consensus-equivocation", t=t,
                            pid=msg.src,
                        )
                else:
                    self._vote_values[key] = value
            elif kind == self._DECIDE_KIND:
                value = msg.payload
                if not self._in_universe(value):
                    self.fail(
                        f"broadcast decision {value!r} is outside the "
                        "value universe",
                        name="consensus-integrity", t=t, pid=msg.src,
                    )
                if msg.src in self._decide_values:
                    if self._decide_values[msg.src] != value:
                        self.fail(
                            f"equivocation: broadcast decisions "
                            f"{self._decide_values[msg.src]!r} and {value!r}",
                            name="consensus-equivocation", t=t,
                            pid=msg.src,
                        )
                else:
                    self._decide_values[msg.src] = value


def default_invariants(kind: str = "gossip") -> List[Invariant]:
    """Fresh instances of every invariant applicable to a run ``kind``.

    This is what ``RunSpec(check_invariants=True)`` attaches via the
    builder; pass the list to ``Simulation(observers=...)`` directly for
    hand-built runs.
    """
    # Order matters for attribution: crash-consistency is attached before
    # traffic-provenance so forged traffic from a *crashed* sender keeps
    # its historical violation name, while forgery from live senders
    # falls through to the provenance net.
    if kind == "gossip":
        return [
            GossipValidityInvariant(),
            CrashConsistencyInvariant(),
            TrafficProvenanceInvariant(),
            BoundConsistencyInvariant(),
        ]
    return [
        CrashConsistencyInvariant(),
        TrafficProvenanceInvariant(),
        BoundConsistencyInvariant(),
        ConsensusInvariant(),
    ]


def _bits(mask: int) -> List[int]:
    return [index for index in range(mask.bit_length()) if mask >> index & 1]
