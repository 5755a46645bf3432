"""Naive epidemic gossip without a stopping rule (ablation baseline).

The introduction's "simple scheme": every local step, send everything you
know to one uniformly random process. It gathers rumors fast, but it never
becomes quiescent — the open question the paper's EARS shut-down machinery
answers. Used by the ablation benches to show (a) gathering speed matches
EARS and (b) message cost grows without bound.

``stop_after_steps`` optionally halts sending after a fixed number of local
steps, demonstrating the paper's point (Section 1) that a predetermined
number of iterations is *not* a sound stopping rule under asynchrony: with a
skewed schedule, some processes exhaust their iterations before others have
spread anything.
"""

from __future__ import annotations

from typing import List, Optional

from ..sim.message import Message
from ..sim.process import Context
from .base import GossipAlgorithm


class UniformEpidemicGossip(GossipAlgorithm):
    """Push-style epidemic with no informed-list and no shut-down logic."""

    KIND = "epidemic"

    def __init__(
        self,
        pid: int,
        n: int,
        f: int,
        rumor_payload=None,
        stop_after_steps: Optional[int] = None,
    ) -> None:
        super().__init__(pid, n, f, rumor_payload)
        self.stop_after_steps = stop_after_steps
        self._steps = 0

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        self.rumors.merge_inbox(inbox)
        if (self.stop_after_steps is None
                or self._steps < self.stop_after_steps) and not ctx.isolated:
            ctx.send(ctx.random_peer(), self.rumors.snapshot(), kind=self.KIND)
        self._steps += 1

    def is_quiescent(self) -> bool:
        return (
            self.stop_after_steps is not None
            and self._steps >= self.stop_after_steps
        )
