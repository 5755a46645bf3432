"""Deterministic synchronous expander-overlay gossip (the "CK [9]" row).

The paper's Table 1 cites Chlebus–Kowalski [9]: deterministic synchronous
gossip in O(polylog n) rounds with O(n polylog n) messages, tolerating up to
n−1 crashes. The full CK machinery is a paper of its own; per DESIGN.md §5
this module implements the behaviourally equivalent baseline: every process
floods its rumor set over a deterministic O(log n)-degree expander-like
overlay for O(log n) rounds per phase, repeating phases until its view
stabilizes.

Complexity over the crash regimes our benches exercise: rounds
O(log n)·phases = O(polylog n), messages O(n log n) per round =
O(n polylog n). Robustness: a crash only removes one overlay vertex; the
skip overlay keeps logarithmic reachability unless an adversary surgically
cuts all ±2^j neighbors of a victim, which the oblivious/random crash plans
used for the Table 1 and Corollary 2 baselines do not do. We do not claim
the full CK worst-case adaptive resilience.

The algorithm counts rounds, so it runs on the d = δ = 1 execution of
:class:`~repro.sim.engine.Simulation`, where every live process steps every
step and every message arrives one step later: one step is one round.
"""

from __future__ import annotations

from typing import List, Optional

from ..core.rumors import RumorSet
from ..sim.message import Message
from ..sim.process import Algorithm, Context
from .expander import overlay_diameter_bound, skip_graph_neighbors


class CkStyleGossip(Algorithm):
    """Flood rumor sets over a deterministic skip overlay until stable.

    A process forwards its rumor set to all overlay neighbors every round
    while its set keeps changing, and for up to ``patience`` =
    ⌈log₂ n⌉ + 1 quiet rounds after the last change (covering the overlay
    diameter). It is quiescent once the quiet budget is exhausted.
    """

    KIND = "ck"

    def __init__(self, pid: int, n: int, f: int, rumor_payload=None,
                 neighbors: Optional[dict] = None) -> None:
        self.pid = pid
        self.n = n
        self.f = f
        self.rumors = RumorSet.initial(pid, rumor_payload)
        self._neighbors = (
            neighbors[pid] if neighbors is not None
            else skip_graph_neighbors(n)[pid]
        )
        self._patience = overlay_diameter_bound(n) + 1
        self._quiet_rounds = 0
        self._started = False

    @property
    def rumor_mask(self) -> int:
        return self.rumors.mask

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        changed = self.rumors.merge_inbox(inbox)
        if changed or not self._started:
            self._quiet_rounds = 0
            self._started = True
        else:
            self._quiet_rounds += 1
        if self._quiet_rounds <= self._patience:
            snapshot = self.rumors.snapshot()
            ctx.send_many(self._neighbors, snapshot, kind=self.KIND)

    def is_quiescent(self) -> bool:
        return self._started and self._quiet_rounds > self._patience
