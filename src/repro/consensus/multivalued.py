"""Multivalued consensus from binary consensus plus gossip.

The paper's consensus protocols (Section 6) are binary, as is standard for
randomized asynchronous consensus. This module closes the gap to the
multivalued problem with the classic rotating-candidate reduction, staying
inside the same framework:

* every message piggy-backs the sender's known **proposals** (pid → value),
  so proposal dissemination rides the consensus traffic itself (one more
  use of the Section 6 catch-up idea);
* for mv-round r = 0, 1, 2, …, the processes run one *binary*
  Canetti–Rabin consensus asking "shall we adopt the proposal of candidate
  r mod n?" — a process votes 1 iff it currently holds that candidate's
  proposal;
* when an mv-round decides 1, everyone decides the candidate's value
  (validity of the inner binary consensus guarantees some process voted 1,
  i.e. the proposal exists; by then the piggy-backing has spread it, and a
  decided process's drain replies carry it to any straggler).

Termination: as soon as some candidate's proposal has reached everyone —
which the piggy-backing achieves within the first mv-round's traffic — the
corresponding round is a unanimous 1-vote and decides immediately; rounds
that decide 0 cost one binary consensus each. Agreement and validity
reduce to the inner protocol's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..sim.message import Message
from ..sim.process import Algorithm, Context, SubContext
from .canetti_rabin import CanettiRabinConsensus


@dataclass
class MvEnvelope:
    """Outer wire format: the inner binary-consensus envelope plus the
    multivalued bookkeeping that rides along."""

    mv_round: Optional[int]
    inner: Any
    proposals: Dict[int, Any] = field(default_factory=dict)
    decided_rounds: Dict[int, int] = field(default_factory=dict)
    mv_decided: Optional[Any] = None


class MultivaluedConsensus(Algorithm):
    """Agree on one of n arbitrary proposed values."""

    def __init__(self, pid: int, n: int, f: int, proposal: Any,
                 gossip_factory: Callable) -> None:
        if proposal is None:
            raise ValueError("proposals must not be None")
        self.pid = pid
        self.n = n
        self.f = f
        self.gossip_factory = gossip_factory

        self.proposals: Dict[int, Any] = {pid: proposal}
        self.mv_round = 0
        self.decided: Optional[Any] = None
        self.decided_candidate: Optional[int] = None
        #: Outcomes of completed inner consensus rounds (0/1), for catch-up.
        self.decided_rounds: Dict[int, int] = {}

        self._inner: Optional[CanettiRabinConsensus] = None

    # -- plumbing ----------------------------------------------------------

    def _candidate(self, mv_round: int) -> int:
        return mv_round % self.n

    def _outer(self, inner: Any, kind: str) -> MvEnvelope:
        """The inner consensus's wrap: one envelope per send call."""
        return MvEnvelope(
            mv_round=self.mv_round,
            inner=inner,
            proposals=dict(self.proposals),
            decided_rounds=dict(self.decided_rounds),
            mv_decided=self.decided,
        )

    def _ensure_inner(self) -> None:
        if self._inner is None and self.decided is None:
            vote = 1 if self._candidate(self.mv_round) in self.proposals \
                else 0
            self._inner = CanettiRabinConsensus(
                self.pid, self.n, self.f, vote, self.gossip_factory,
            )

    def _mv_decide_round(self, mv_round: int, outcome: int) -> None:
        """Record an inner decision and advance (or decide the value)."""
        self.decided_rounds[mv_round] = outcome
        if outcome == 1 and self.decided is None:
            candidate = self._candidate(mv_round)
            value = self.proposals.get(candidate)
            if value is not None:
                self.decided = value
                self.decided_candidate = candidate
                self._inner = None
                return
            # Validity of the inner consensus guarantees the proposal
            # exists somewhere (the 1-voter's own messages carried it);
            # _try_conclude_winning_round picks it up as soon as it arrives.
        if self.decided is None and self.mv_round == mv_round:
            self.mv_round += 1
            self._inner = None

    def _catch_up(self, envelope: MvEnvelope) -> None:
        self.proposals.update(envelope.proposals)
        if envelope.mv_decided is not None and self.decided is None:
            self.decided = envelope.mv_decided
            self._inner = None
        for mv_round, outcome in sorted(envelope.decided_rounds.items()):
            if mv_round not in self.decided_rounds:
                if mv_round == self.mv_round:
                    self._mv_decide_round(mv_round, outcome)
                else:
                    self.decided_rounds[mv_round] = outcome
        # A won round whose value has since arrived can now conclude.
        self._try_conclude_winning_round()

    def _try_conclude_winning_round(self) -> None:
        if self.decided is not None:
            return
        for mv_round, outcome in self.decided_rounds.items():
            if outcome == 1:
                value = self.proposals.get(self._candidate(mv_round))
                if value is not None:
                    self.decided = value
                    self.decided_candidate = self._candidate(mv_round)
                    self._inner = None
                    return

    # -- the per-step driver -------------------------------------------------

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        inner_inbox: List[Message] = []
        for msg in inbox:
            envelope: MvEnvelope = msg.payload
            self._catch_up(envelope)
            if (self.decided is None
                    and envelope.mv_round == self.mv_round
                    and envelope.inner is not None):
                inner_inbox.append(
                    Message(src=msg.src, dst=self.pid,
                            payload=envelope.inner, kind=msg.kind)
                )

        if self.decided is not None:
            # Drain mode at the outer layer: one reply per contact, which
            # carries the decision and the full proposal map.
            for src in sorted({m.src for m in inbox}):
                ctx.send(
                    src,
                    MvEnvelope(mv_round=None, inner=None,
                               proposals=dict(self.proposals),
                               decided_rounds=dict(self.decided_rounds),
                               mv_decided=self.decided),
                    kind="mv-decided",
                )
            return

        self._ensure_inner()
        round_before = self.mv_round
        self._inner.on_step(SubContext(ctx, self._outer), inner_inbox)
        if (self._inner is not None and self._inner.decided is not None
                and self.mv_round == round_before):
            self._mv_decide_round(round_before, self._inner.decided)


def run_multivalued_consensus(
    gossip: str = "ears",
    n: int = 16,
    f: Optional[int] = None,
    d: int = 1,
    delta: int = 1,
    seed: int = 0,
    proposals: Optional[List[Any]] = None,
    crashes=None,
    max_steps: Optional[int] = None,
):
    """Run one multivalued consensus execution; returns a ConsensusRun.

    Mirrors :func:`repro.consensus.runner.run_consensus` but with arbitrary
    per-process proposals (default: distinct strings, the hardest input).
    """
    from ..adversary.crash_plans import CrashPlan, no_crashes, random_crashes
    from ..adversary.oblivious import ObliviousAdversary
    from ..sim.engine import Simulation
    from ..sim.errors import ConfigurationError
    from ..sim.monitor import PredicateMonitor
    from ..spec.registry import TRANSPORTS
    from .properties import agreement_holds, validity_holds
    from .values import ConsensusRun

    if f is None:
        f = (n - 1) // 2
    if not 0 <= f < n / 2:
        raise ConfigurationError(
            f"consensus requires 0 <= f < n/2, got f={f}, n={n}"
        )
    if proposals is None:
        proposals = [f"value-{pid}" for pid in range(n)]
    if len(proposals) != n:
        raise ConfigurationError(
            f"expected {n} proposals, got {len(proposals)}"
        )

    if crashes is None:
        plan = no_crashes()
    elif isinstance(crashes, CrashPlan):
        plan = crashes
    else:
        plan = random_crashes(n, int(crashes), max(1, 8 * (d + delta)),
                              seed=seed)

    factory = TRANSPORTS[gossip]
    algorithms = [
        MultivaluedConsensus(pid, n, f, proposals[pid], factory)
        for pid in range(n)
    ]
    adversary = ObliviousAdversary.uniform(d, delta, seed=seed, crashes=plan)
    monitor = PredicateMonitor(
        lambda sim: all(
            sim.algorithm(pid).decided is not None
            for pid in sim.alive_pids
        ),
        name="all-mv-decided",
    )
    sim = Simulation(
        n=n, f=f, algorithms=algorithms, adversary=adversary,
        monitor=monitor, seed=seed,
    )
    limit = max_steps if max_steps is not None else max(
        30_000, 900 * (d + delta) * n
    )
    result = sim.run(max_steps=limit)
    decisions = {
        pid: sim.algorithm(pid).decided
        for pid in range(n) if sim.algorithm(pid).decided is not None
    }
    return ConsensusRun(
        gossip=f"mv-{gossip}",
        n=n,
        f=f,
        completed=result.completed and all(
            pid in decisions for pid in sim.alive_pids
        ),
        reason=result.reason,
        decision_time=result.completion_time,
        messages=result.messages,
        messages_by_kind=dict(result.metrics["messages_by_kind"]),
        decisions=decisions,
        rounds_used=max(
            (sim.algorithm(pid).mv_round + 1 for pid in decisions),
            default=0,
        ),
        agreement=agreement_holds(decisions),
        validity=validity_holds(decisions, proposals),
        realized_d=result.metrics["realized_d"],
        realized_delta=result.metrics["realized_delta"],
        crashes=result.metrics["crashes"],
        sim=sim,
    )
