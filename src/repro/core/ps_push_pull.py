"""Panagiotou–Speidel asynchronous push–pull on random graphs.

Panagiotou & Speidel (arXiv:1608.01766) analyze rumor spreading on
Erdős–Rényi G(n, p) under the *asynchronous* push–pull protocol: each
node, when its private clock rings, contacts one uniformly random
**neighbor** and the pair exchanges everything either of them knows —
push (the caller's rumors flow to the callee) and pull (the callee's
rumors flow back) in a single contact. Their result: above the
connectivity threshold (p ≥ (1+ε)·ln(n)/n) the rumor reaches every node
in Θ(log n) time, matching the complete graph despite the graph being
exponentially sparser.

This implementation maps their protocol onto the paper's discrete
adversarial timing model:

* a node's "clock ring" is a scheduled local step;
* the contact is an ``exchange`` message carrying the caller's rumor
  mask (and payloads); the callee merges it and answers with a
  ``reply`` carrying only the rumors the caller was missing — the pull
  half, delta-encoded so redundant contacts cost one message each way
  at most;
* the protocol has no stopping rule (none is analyzed in the PS model),
  so processes keep contacting neighbors forever and completion is
  *gathering only* — the spec builder pairs this algorithm with the
  gathering-only monitor, exactly as it does for the ``uniform``
  baseline.

On the complete graph the contact target is a uniform pid (the paper's
epidemic draw); under a ``gnp``/``ring``/``random-regular``/
``small-world`` topology it is a uniform neighbor. The topology sweep in
:mod:`repro.workloads.topology` measures the spread-time exponents this
family predicts: Θ(log n) on supercritical G(n,p) and the complete
graph, Θ(n) on the ring.
"""

from __future__ import annotations

from typing import List

from ..sim.message import Message
from ..sim.process import Context
from .base import GossipAlgorithm

KIND_EXCHANGE = "ps-exchange"
KIND_REPLY = "ps-reply"


class PanagiotouSpeidelPushPull(GossipAlgorithm):
    """Asynchronous push–pull: contact a random neighbor, swap rumors."""

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        for msg in inbox:
            mask, payloads = msg.payload
            if msg.kind == KIND_EXCHANGE:
                # Pull half: teach the caller what it was missing. Delta
                # encoding keeps a redundant contact at one reply, and a
                # fully redundant one (caller knows everything we do) at
                # zero.
                missing = self.rumors.mask & ~mask
                if missing:
                    reply_payloads = (
                        {pid: value
                         for pid, value in self.rumors.payloads.items()
                         if missing >> pid & 1}
                        or None
                    )
                    ctx.send(msg.src, (missing, reply_payloads),
                             kind=KIND_REPLY)
            # Merged per message, not folded after the loop: the reply to
            # message k is computed from V as messages 1..k-1 left it, so
            # the order of reads and merges is the algorithm.
            self.rumors.merge(mask, payloads)

        if not ctx.isolated:
            # Push half: one uniformly random neighbor per clock ring.
            ctx.send(ctx.random_peer(), self.rumors.snapshot(),
                     kind=KIND_EXCHANGE)
