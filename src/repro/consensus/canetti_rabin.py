"""The Canetti–Rabin-style randomized consensus framework (Section 6).

Structure per the paper (following Attiya–Welch §14.3 for crash failures):
each round has three *votings*, each implemented by one ``get-core`` call;
each get-core is three sequential instances of asynchronous (majority)
gossip, every instance terminating at a process once it has received
⌊n/2⌋ + 1 of that instance's rumors.

Round r:
  1. **Estimate voting.** Vote the current estimate. If the get-core view is
     unanimous for v → *decide v*. If some value holds an absolute majority
     (> n/2 of all n) of the view → prefer v, else prefer ⊥.
  2. **Preference voting.** Vote the preference. At most one non-⊥ value can
     appear (two absolute majorities cannot coexist). If present, adopt it
     as the estimate; remember whether the view was unanimous.
  3. **Coin voting.** Everyone contributes a biased flip (0 w.p. 1/n) and
     runs get-core; processes whose preference view showed no non-⊥ value
     adopt the combined coin as their estimate. Everyone *participates* in
     the coin voting even when their estimate is already fixed — skipping it
     would starve slower processes of the majority they need.

Asynchronous composition (the paper's catch-up rule): every message carries
the sender's history of completed get-core stage outcomes; a process behind
the sender adopts outcomes for its current instance and fast-forwards. Two
engineering guards keep the composition live without changing asymptotics:

* **Probing.** A process whose embedded gossip instance has gone quiescent
  without reaching majority sends a one-off probe to a uniformly random
  peer every ``probe_interval`` idle steps; any recipient answers with its
  history (or its decision).
* **Drain mode.** A decided process stops initiating and answers every
  incoming message with a single DECIDED reply, which the recipient adopts.
  (Deciding is safe to adopt: a decision implies every live process already
  prefers the decided value.)
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from ..sim.message import Message
from ..sim.process import Algorithm, Context, SubContext
from .._util import popcount
from . import coin
from .values import (
    BOTTOM,
    Envelope,
    InstanceTag,
    VOTING_COIN,
    VOTING_ESTIMATE,
    VOTING_PREFERENCE,
    first_instance,
)

#: factory(pid, n, f, rumor_payload) -> a GossipAlgorithm-like object
GossipFactory = Callable[..., Any]

KIND_PROBE = "probe"
KIND_PROBE_REPLY = "probe-reply"
KIND_DECIDED = "decided"


class CanettiRabinConsensus(Algorithm):
    """One consensus process, parameterized by the gossip transport."""

    def __init__(
        self,
        pid: int,
        n: int,
        f: int,
        initial_value: Any,
        gossip_factory: GossipFactory,
        probe_interval: int = 6,
    ) -> None:
        if initial_value is BOTTOM:
            raise ValueError("initial value must not be the ⊥ sentinel (None)")
        self.pid = pid
        self.n = n
        self.f = f
        self.need = n // 2 + 1
        self.gossip_factory = gossip_factory
        self.probe_interval = probe_interval

        self.estimate = initial_value
        self.preference: Any = BOTTOM
        self._use_coin = False
        self.decided: Optional[Any] = None
        self.decided_round: Optional[int] = None

        self.instance: InstanceTag = first_instance()
        self.history: Dict[InstanceTag, Dict[int, Any]] = {}
        self.gossip: Optional[Any] = None
        self._idle_steps = 0

    # -- wiring ---------------------------------------------------------- #

    def _envelope(self, inner: Any, kind: str,
                  probe: bool = False) -> Envelope:
        """The embedded gossip's wrap, once per send call: all its
        destinations share the envelope and its (immutable) ``history``."""
        return Envelope(instance=self.instance, inner=inner,
                        history=self.history, decided=self.decided,
                        probe=probe)

    def _vote_for_current_voting(self, ctx: Context) -> Any:
        rnd, voting, stage = self.instance
        if stage > 0:
            return self.history[(rnd, voting, stage - 1)]
        if voting == VOTING_ESTIMATE:
            return self.estimate
        if voting == VOTING_PREFERENCE:
            return self.preference
        return coin.flip(ctx.rng, self.n)

    def _ensure_gossip(self, ctx: Context) -> None:
        if self.gossip is None:
            payload = self._vote_for_current_voting(ctx)
            self.gossip = self.gossip_factory(
                pid=self.pid, n=self.n, f=self.f, rumor_payload=payload
            )

    # -- state machine ----------------------------------------------------#

    def _decide(self, value: Any) -> None:
        if self.decided is None:
            self.decided = value
            self.decided_round = self.instance[0]

    def _advance(self, tag: InstanceTag) -> None:
        self.instance = tag
        self.gossip = None
        self._idle_steps = 0

    def _flatten_view(self, stage: int,
                      collected: Dict[int, Any]) -> Dict[int, Any]:
        """Turn a completed stage's rumor payloads into a vote view.

        Stage 0 rumors *are* votes; stage ≥ 1 rumors are earlier views
        (dicts) whose union is the richer view.
        """
        if stage == 0:
            return dict(collected)
        view: Dict[int, Any] = {}
        for sub_view in collected.values():
            view.update(sub_view)
        return view

    def _complete_instance(self, outcome: Dict[int, Any]) -> None:
        """Record a completed stage and run the voting logic if it closed.

        The one writer of ``history``: it binds a new dict, so envelopes
        already sent keep the history they were sent with."""
        rnd, voting, stage = self.instance
        self.history = {**self.history, self.instance: outcome}
        if stage < 2:
            self._advance((rnd, voting, stage + 1))
            return

        votes = outcome  # the get-core return: pid -> vote
        if voting == VOTING_ESTIMATE:
            values = list(votes.values())
            first = values[0]
            if all(value == first for value in values):
                self._decide(first)
                return
            majority_value = BOTTOM
            counts: Dict[Any, int] = {}
            for value in values:
                counts[value] = counts.get(value, 0) + 1
                if counts[value] > self.n / 2:
                    majority_value = value
            self.preference = majority_value
            self._advance((rnd, VOTING_PREFERENCE, 0))
        elif voting == VOTING_PREFERENCE:
            non_bottom = sorted(
                {value for value in votes.values() if value is not BOTTOM},
                key=repr,
            )
            if non_bottom:
                # At most one value can hold an absolute majority; with
                # finite get-core views this is unique by the standard
                # double-majority argument.
                self.estimate = non_bottom[0]
                self._use_coin = False
            else:
                self._use_coin = True
            self._advance((rnd, VOTING_COIN, 0))
        else:  # VOTING_COIN
            if self._use_coin:
                self.estimate = coin.combine(votes)
            self._advance((rnd + 1, VOTING_ESTIMATE, 0))

    def _apply_history(self, history: Dict[InstanceTag, Dict[int, Any]]
                       ) -> None:
        """Fast-forward through every outcome the sender already computed."""
        while self.decided is None:
            outcome = history.get(self.instance)
            if outcome is None:
                return
            self._complete_instance(outcome)

    def _check_local_completion(self) -> None:
        # At most one stage a step: completing it clears self.gossip, and
        # the next instance's gossip is created on a later step.
        gossip = self.gossip
        if (self.decided is None and gossip is not None
                and popcount(gossip.rumor_mask) >= self.need):
            collected = {origin: gossip.rumors.value_of(origin)
                         for origin in gossip.rumors}
            self._complete_instance(
                self._flatten_view(self.instance[2], collected))

    # -- the per-step driver ------------------------------------------------

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        instance_before = self.instance

        probers: List[int] = []
        for msg in inbox:
            envelope: Envelope = msg.payload
            if envelope.decided is not None:
                self._decide(envelope.decided)
            if envelope.probe:
                probers.append(msg.src)
            self._apply_history(envelope.history)

        if self.decided is not None:
            # Drain mode: answer anyone who still talks to us, once each.
            for src in sorted({m.src for m in inbox}):
                ctx.send(src, Envelope(instance=None, inner=None,
                                       decided=self.decided),
                         kind=KIND_DECIDED)
            return

        for src in sorted(set(probers)):
            ctx.send(src, self._envelope(None, KIND_PROBE_REPLY),
                     kind=KIND_PROBE_REPLY)

        sub_inbox = [
            Message(src=msg.src, dst=self.pid, payload=msg.payload.inner,
                    kind=msg.kind)
            for msg in inbox
            if (not msg.payload.probe
                and msg.payload.instance == self.instance
                and msg.payload.inner is not None)
        ]

        self._ensure_gossip(ctx)
        queued = len(ctx.outbox)
        self.gossip.on_step(SubContext(ctx, self._envelope), sub_inbox)
        self._check_local_completion()

        if self.decided is not None:
            return
        if self.instance != instance_before or len(ctx.outbox) > queued:
            self._idle_steps = 0
        else:
            self._idle_steps += 1
            if self._idle_steps >= self.probe_interval:
                self._idle_steps = 0
                ctx.send(ctx.random_peer(),
                         self._envelope(None, KIND_PROBE, probe=True),
                         kind=KIND_PROBE)

    # -- inspection -------------------------------------------------------- #

    def is_quiescent(self) -> bool:
        # Decided processes only ever react; undecided ones keep probing.
        return self.decided is not None
