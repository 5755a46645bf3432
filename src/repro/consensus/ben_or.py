"""Ben-Or's randomized consensus [3] — the historical baseline.

The first randomized asynchronous consensus protocol: per round, an
estimate exchange and a proposal exchange, each waiting for n−f messages;
a process decides when a proposal value appears f+1 times, adopts a
proposed value if any appears, and otherwise flips a *local* coin. With
local coins the expected round count is exponential in the worst case
(constant only for lucky/biased inputs), which is exactly the gap the
Canetti–Rabin shared-coin framework closes — our Table 2 contrast.

Crash model, f < n/2. Message complexity Θ(n²) per round. A decided
process broadcasts one DECIDE message so stragglers terminate.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple

from ..sim.message import Message
from ..sim.process import Algorithm, Context

PHASE_REPORT = "R"
PHASE_PROPOSE = "P"
KIND_DECIDE = "ben-or-decide"
KIND_VOTE = "ben-or"

BOTTOM = None


class BenOrConsensus(Algorithm):
    """One Ben-Or process (binary values recommended)."""

    def __init__(self, pid: int, n: int, f: int, initial_value: Any) -> None:
        self.pid = pid
        self.n = n
        self.f = f
        self.quorum = n - f
        self.estimate = initial_value
        self.round = 1
        self.phase = PHASE_REPORT
        self.decided: Optional[Any] = None
        self.decided_round: Optional[int] = None
        self._broadcast_needed = True
        self._decide_broadcast_done = False
        # votes[(phase, round)][src] = value  (own vote included)
        self._votes: Dict[Tuple[str, int], Dict[int, Any]] = defaultdict(dict)

    # -- helpers ----------------------------------------------------------- #

    def _broadcast(self, ctx: Context, phase: str, value: Any) -> None:
        payload = (phase, self.round, value)
        self._votes[(phase, self.round)][self.pid] = value
        for dst in range(self.n):
            if dst != self.pid:
                ctx.send(dst, payload, kind=KIND_VOTE)

    def _current_votes(self) -> Dict[int, Any]:
        return self._votes[(self.phase, self.round)]

    def _counts(self, votes: Dict[int, Any]) -> Dict[Any, int]:
        counts: Dict[Any, int] = {}
        for value in votes.values():
            counts[value] = counts.get(value, 0) + 1
        return counts

    def _decide(self, value: Any) -> None:
        if self.decided is None:
            self.decided = value
            self.decided_round = self.round

    # -- the round machine --------------------------------------------------

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        for msg in inbox:
            payload = msg.payload
            if msg.kind == KIND_DECIDE:
                self._decide(payload)
                continue
            phase, rnd, value = payload
            self._votes[(phase, rnd)][msg.src] = value

        if self.decided is not None:
            if not self._decide_broadcast_done:
                for dst in range(self.n):
                    if dst != self.pid:
                        ctx.send(dst, self.decided, kind=KIND_DECIDE)
                self._decide_broadcast_done = True
            return

        if self._broadcast_needed:
            value = self.estimate if self.phase == PHASE_REPORT else self._w
            self._broadcast(ctx, self.phase, value)
            self._broadcast_needed = False

        votes = self._current_votes()
        if len(votes) < self.quorum:
            return

        counts = self._counts(votes)
        if self.phase == PHASE_REPORT:
            self._w = BOTTOM
            for value, count in counts.items():
                if count > self.n / 2:
                    self._w = value
            self.phase = PHASE_PROPOSE
            self._broadcast_needed = True
        else:
            proposals = {
                value: count for value, count in counts.items()
                if value is not BOTTOM
            }
            if proposals:
                best = max(sorted(proposals, key=repr),
                           key=lambda v: proposals[v])
                if proposals[best] >= self.f + 1:
                    self._decide(best)
                    return
                self.estimate = best
            else:
                self.estimate = ctx.rng.randrange(2)
            self.round += 1
            self.phase = PHASE_REPORT
            self._broadcast_needed = True

    def is_quiescent(self) -> bool:
        return self.decided is not None and self._decide_broadcast_done

    def summary(self) -> dict:
        return {
            "pid": self.pid,
            "round": self.round,
            "phase": self.phase,
            "estimate": self.estimate,
            "decided": self.decided,
        }
