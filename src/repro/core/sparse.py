"""A frugal cascading gossip strategy (the Theorem 1 Case 2 target).

The lower-bound proof splits rumor-spreading strategies into two camps:
"either processes send many messages in an attempt to rapidly distribute
their rumors, or they rely on the cascading of messages in an attempt to
send only a few". :class:`SparseGossip` is the canonical second camp: each
process forwards its knowledge to a small budget of random targets and then
goes quiet, re-arming the budget only when it learns something new.

With ``budget`` well below f/32, the Theorem 1 adversary classifies these
processes as non-promiscuous and drives the execution into Case 2: it finds
two processes with a constant probability of never contacting each other,
fails the potential intermediaries, and stalls completion for Ω(f(d+δ)).

This is *not* one of the paper's algorithms — it exists to make the lower
bound's second branch executable and measurable.
"""

from __future__ import annotations

from typing import List

from ..sim.message import Message
from ..sim.process import Context
from .base import GossipAlgorithm


class SparseGossip(GossipAlgorithm):
    """Forward to ``budget`` random targets per novelty, then stay silent."""

    KIND = "sparse"

    def __init__(self, pid: int, n: int, f: int, rumor_payload=None,
                 budget: int = 2, rearm: bool = True) -> None:
        super().__init__(pid, n, f, rumor_payload)
        if budget < 1:
            raise ValueError(f"budget must be >= 1, got {budget}")
        self.budget = budget
        self.rearm = rearm
        self._remaining = budget

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        learned = self.rumors.merge_inbox(inbox)
        if learned and self.rearm:
            self._remaining = self.budget
        if self._remaining > 0 and not ctx.isolated:
            ctx.send(ctx.random_peer(), self.rumors.snapshot(), kind=self.KIND)
            self._remaining -= 1

    def is_quiescent(self) -> bool:
        return self._remaining == 0
