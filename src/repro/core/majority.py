"""A deterministic two-hop majority gossip — probing the paper's open
question.

Section 7 asks: "does there exist an efficient deterministic asynchronous
algorithm for the majority gossip problem?" This module makes the question
executable. :class:`DeterministicMajorityGossip` derandomizes TEARS in the
most natural way: instead of random Π1/Π2 sets, process p uses fixed
arithmetic-progression neighbourhoods

    Π(p) = { (p + i·stride) mod n : 1 ≤ i ≤ k },   k ≈ c·√n,

with stride 1 for the first hop and stride ⌈n/k⌉ for the second, so the
two hops compose to cover the whole ring. Per process it sends Θ(√n)
first-level and (trigger-driven) Θ(√n) second-level messages — the same
sub-quadratic budget shape as TEARS.

What the experiments show (bench MAJ-OPEN):

* under an **oblivious adversary with random crashes** (f < n/2) it solves
  majority gossip with sub-quadratic messages — determinism is fine when
  the adversary can't aim;
* under a **targeted crash plan** that kills a contiguous arc of the ring
  — a plan an oblivious adversary is perfectly allowed to fix in advance
  once the (deterministic, public) neighbourhoods are known — first-level
  fan-in collapses for the processes behind the arc and majority gossip
  fails. Randomization is exactly what denies the adversary this aim,
  which is empirical evidence for why the deterministic question is open.
"""

from __future__ import annotations

import math
from typing import List

from .._util import ln
from ..adversary.crash_plans import CrashPlan, wave_crashes
from ..sim.message import Message, pack_pids
from ..sim.process import Context
from .base import GossipAlgorithm

KIND_FIRST = "det-first"
KIND_SECOND = "det-second"


class DeterministicMajorityGossip(GossipAlgorithm):
    """TEARS with fixed arithmetic-progression neighbourhoods."""

    def __init__(self, pid: int, n: int, f: int, rumor_payload=None,
                 degree_constant: float = 2.0) -> None:
        super().__init__(pid, n, f, rumor_payload)
        self.k = max(1, min(n - 1, math.ceil(
            degree_constant * math.sqrt(n) * max(1.0, ln(n) / 2)
        )))
        stride2 = max(1, n // self.k)
        self.pi1 = pack_pids(n, ((pid + i) % n
                                 for i in range(1, self.k + 1)))
        self.pi2 = pack_pids(n, ((pid + i * stride2) % n
                                 for i in range(1, self.k + 1)))
        self.first_sent = False
        self.first_level_received = 0
        #: Re-broadcast every time another ``threshold`` first-level
        #: messages arrive (the deterministic trigger rule).
        self.trigger_spacing = max(1, self.k // 4)
        self._next_trigger = max(1, self.k // 4)

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        if inbox:
            # Fold the inbox into locals, store once (RumorSet.merge_inbox
            # with a third field: first-level messages are counted).
            rumors = self.rumors
            got = received = 0
            for msg in inbox:
                mask, payloads, first_level = msg.payload
                if payloads:
                    rumors.payloads.update(payloads)
                got |= mask
                if first_level:
                    received += 1
            rumors.mask |= got
            self.first_level_received += received

        if not self.first_sent:
            payload = self._payload(first_level=True)
            ctx.send_many(self.pi1, payload, kind=KIND_FIRST)
            self.first_sent = True

        if self.first_level_received >= self._next_trigger:
            self._next_trigger += self.trigger_spacing
            payload = self._payload(first_level=False)
            ctx.send_many(self.pi2, payload, kind=KIND_SECOND)

    def _payload(self, first_level: bool):
        payloads = dict(self.rumors.payloads) if self.rumors.payloads else None
        return (self.rumors.mask, payloads, first_level)

    def is_quiescent(self) -> bool:
        return self.first_sent


def targeted_arc_crash_plan(n: int, f: int, start: int = 0,
                            at: int = 0) -> CrashPlan:
    """The plan that defeats the deterministic scheme: a contiguous arc.

    Crashing ``f`` consecutive ring positions starting at ``start`` wipes
    out the fixed stride-1 neighbourhoods feeding the processes just after
    the arc — a plan the oblivious adversary can fix in advance precisely
    because the neighbourhoods are deterministic and public.
    """
    victims = [(start + i) % n for i in range(f)]
    return wave_crashes(victims, at=at)
