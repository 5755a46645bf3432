"""Adaptive-fanout epidemic gossip (the Verma–Ooi [26] related-work
baseline).

The related work section cites "controlling gossip protocol infection
pattern using adaptive fanout" — a pragmatic engineering answer to the two
questions the paper poses in its introduction (how often to transmit, when
to stop), but one that, unlike EARS, relies on *heuristics*:

* **fanout control**: a process resets its fanout to ``base_fanout`` when
  a received message taught it something, and additively decays toward
  ``min_fanout`` while traffic is redundant — infection-rate feedback;
* **stopping**: a process goes quiet after ``quiet_threshold`` consecutive
  novelty-free local steps (and wakes on new information).

Against a benign schedule this performs well. The instructive part — and
the reason EARS's certified informed-list stopping exists — is what happens
under the paper's adversarial asynchrony: with delays large relative to
the quiet threshold, processes conclude "nothing new is coming" while the
news is still in flight, and the protocol can stop with rumors missing.
The tests and the stopping-rule ablation bench measure exactly that
failure mode; Section 1's claim that heuristic iteration counts are
unsound under asynchrony, made executable.
"""

from __future__ import annotations

from typing import List

from ..sim.message import Message
from ..sim.process import Context
from .base import GossipAlgorithm

KIND_ADAPTIVE = "adaptive"


class AdaptiveFanoutGossip(GossipAlgorithm):
    """Epidemic gossip with infection-feedback fanout and heuristic stop."""

    def __init__(self, pid: int, n: int, f: int, rumor_payload=None,
                 base_fanout: int = 4, min_fanout: int = 1,
                 quiet_threshold: int = 8) -> None:
        super().__init__(pid, n, f, rumor_payload)
        if not 1 <= min_fanout <= base_fanout:
            raise ValueError(
                f"need 1 <= min_fanout <= base_fanout, got "
                f"{min_fanout}, {base_fanout}"
            )
        self.base_fanout = base_fanout
        self.min_fanout = min_fanout
        self.quiet_threshold = quiet_threshold
        self.fanout = base_fanout
        self.quiet_steps = 0

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        novelty = self.rumors.merge_inbox(inbox)

        if novelty:
            # Something new is circulating: re-open the fanout and reset
            # the quiet counter (wake up if we had stopped).
            self.fanout = self.base_fanout
            self.quiet_steps = 0
        else:
            self.fanout = max(self.min_fanout, self.fanout - 1)
            self.quiet_steps += 1

        if self.quiet_steps < self.quiet_threshold and not ctx.isolated:
            targets = set(ctx.random_peers(self.fanout))
            snapshot = self.rumors.snapshot()
            for dst in targets:
                ctx.send(dst, snapshot, kind=KIND_ADAPTIVE)

    def is_quiescent(self) -> bool:
        return self.quiet_steps >= self.quiet_threshold
