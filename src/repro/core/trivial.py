"""The trivial gossip algorithm (Table 1 row "Trivial").

Each process sends its rumor directly to everyone else in its first local
step and is quiescent thereafter. Message complexity is exactly
``n·(n−1) = Θ(n²)`` and time complexity is ``O(d + δ)``: one scheduling
window to send, one message delay plus one window to receive.

This is the baseline any non-trivial gossip protocol must beat on messages —
and, per Theorem 1, beating it against an adaptive adversary costs
``Ω(f(d+δ))`` time.
"""

from __future__ import annotations

from typing import List

from ..sim.message import Message
from ..sim.process import Context
from .base import GossipAlgorithm


class TrivialGossip(GossipAlgorithm):
    """Direct all-to-all rumor broadcast."""

    KIND = "direct"

    def __init__(self, pid: int, n: int, f: int, rumor_payload=None) -> None:
        super().__init__(pid, n, f, rumor_payload)
        self._broadcast_done = False

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        self.rumors.merge_inbox(inbox)
        if not self._broadcast_done:
            snapshot = self.rumors.snapshot()
            # ctx.peers() is every other pid on the complete graph and the
            # neighbor set under a restricted topology.
            ctx.send_many(
                [dst for dst in ctx.peers() if dst != self.pid],
                snapshot, kind=self.KIND,
            )
            self._broadcast_done = True

    def is_quiescent(self) -> bool:
        return self._broadcast_done
