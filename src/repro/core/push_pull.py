"""Asynchronous push–pull gossip with delta-encoded replies.

The paper's epidemic algorithms *push* their full state every step, which
(as the bit-complexity extension measures) makes EARS message-frugal but
bit-heavy: every message ships the Θ(n²)-bit informed-list. The classic
synchronous alternative — Karp et al.'s push–pull — suggests the
asynchronous counterpart implemented here:

* each local step, send a tiny **digest** — just the n-bit rumor mask, no
  payloads, no informed-list — to one random peer;
* a peer holding rumors the digest lacks answers with a **delta**: only
  the missing rumors. A peer with nothing new stays silent, so redundant
  traffic costs one digest, never a payload;
* stopping still uses a *certificate*, but built from local evidence only:
  a digest from q proves q holds its mask's rumors; my own digests and
  deltas prove what I sent where. Without relaying informed-lists, a
  process must hear from (or talk to) every peer before its L(p) empties —
  a coupon-collector wait of Θ(n log n) local steps instead of EARS'
  polylog. That is the trade this design makes explicit:

      EARS:       few messages, heavy bits, fast certified stop;
      push–pull:  light bits,  more steps to certify the stop.

This is a baseline/extension for the bit-complexity study (§7 future
work), not one of the paper's algorithms.
"""

from __future__ import annotations

import math
from typing import List

from .._util import ln
from ..sim.message import Message
from ..sim.process import Context
from .epidemic import InformedListGossip

KIND_DIGEST = "pp-digest"
KIND_DELTA = "pp-delta"
KIND_ACK = "pp-ack"


class PushPullGossip(InformedListGossip):
    """Digest/delta epidemic with a locally-certified stopping rule."""

    def __init__(self, pid: int, n: int, f: int, rumor_payload=None,
                 shutdown_constant: float = 2.0) -> None:
        # Here the packed I(p) holds local evidence only: bit q·n + r means
        # "I have direct evidence rumor r reached q".
        super().__init__(pid, n, f, rumor_payload)
        self.shutdown_sends = max(1, math.ceil(
            shutdown_constant * (n / max(1, n - f)) * ln(n)
        ))

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        n = self.n
        delta_replies = []
        ack_replies = []
        saw_unknown = False
        # Pairs learnt this step, folded here and OR-ed into I(p) once.
        evidence = 0
        got = 0
        for msg in inbox:
            if msg.kind == KIND_DIGEST:
                their_mask = msg.payload
                # The digest proves its sender holds those rumors.
                evidence |= their_mask << (msg.src * n)
                if their_mask & ~self.rumors.mask:
                    # The sender holds rumors we have never seen: wake up
                    # (if asleep) so our next digests pull them.
                    saw_unknown = True
                missing = self.rumors.mask & ~their_mask
                if missing:
                    delta_replies.append((msg.src, missing))
                else:
                    # Nothing to teach: answer with an ack-digest so the
                    # asker still gains evidence about *us*. Without this,
                    # an asker could wait forever on a sleeping peer whose
                    # full mask it never witnessed. Acks are never
                    # answered, so no ping-pong.
                    ack_replies.append(msg.src)
            elif msg.kind == KIND_ACK:
                evidence |= msg.payload << (msg.src * n)
            else:  # KIND_DELTA
                # Merged per message, not folded after the loop: a later
                # digest's reply (``missing``, ``saw_unknown``) is
                # computed from V as this delta left it, so the order of
                # reads and merges is the algorithm.
                mask, payloads = msg.payload
                self.rumors.merge(mask, payloads)
                got |= mask

        for dst, missing in delta_replies:
            payloads = (
                {pid: value
                 for pid, value in self.rumors.payloads.items()
                 if missing >> pid & 1}
                or None
            )
            ctx.send(dst, (missing, payloads), kind=KIND_DELTA)
            evidence |= missing << (dst * n)
        for dst in ack_replies:
            ctx.send(dst, self.rumors.mask, kind=KIND_ACK)
        if inbox:
            self._I |= evidence | got << (self.pid * n)

        if saw_unknown or not self.l_is_empty():
            self.sleep_cnt = 0
        else:
            self.sleep_cnt += 1

        if self.sleep_cnt <= self.shutdown_sends and not ctx.isolated:
            dst = ctx.random_peer()
            ctx.send(dst, self.rumors.mask, kind=KIND_DIGEST)
            # A digest transmits the rumor identities, which is the
            # "sent to dst" event the L(p) certificate is about (exactly
            # EARS' semantics, where pairs record sends, not receipts —
            # in particular sends to processes that later prove crashed).
            # Receivers pull any payloads they lack via their own digests.
            self._I |= self.rumors.mask << (dst * n)
