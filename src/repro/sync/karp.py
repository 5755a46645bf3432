"""Randomized synchronous rumor spreading (Karp, Schindelhauer, Shenker,
Vöcking [19]).

The paper's introduction cites this as the synchronous gold standard for a
*single* rumor: O(log n) rounds and O(n log log n) rumor transmissions,
w.h.p. We implement push–pull with an age-counter termination rule (a
simplification of [19]'s median-counter algorithm):

* Every round, every active process contacts one uniformly random partner:
  informed processes *push* the rumor, uninformed ones send a *pull* request.
* An informed process answering a push it already knew replies with an
  "already-known" ack; each ack the pusher collects increments its *age*.
  Once the age exceeds ``c_age · log₂ log₂ n`` the process stops initiating
  (it answers pull requests for a few more rounds, then goes silent).

The age rule captures the mechanism behind [19]'s bound: pushes start
hitting informed partners only once the rumor has saturated, so processes
push for about log n rounds plus O(log log n) confirmation rounds, giving
Θ(n log log n)-scale transmissions past saturation instead of Θ(n log n).

We count *rumor transmissions* (push and pull-reply messages, which carry
the rumor) exactly as [19] does; pull requests and acks are connection
overhead, reported separately.

Like the CK baseline, the protocol runs on the d = δ = 1 execution of
:class:`~repro.sim.engine.Simulation`: one step is one round.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import List, Optional

from ..adversary.crash_plans import CrashPlan
from ..adversary.oblivious import ObliviousAdversary
from ..sim.engine import Simulation
from ..sim.message import Message
from ..sim.monitor import PredicateMonitor
from ..sim.process import Algorithm, Context
from ..sim.rng import derive_rng

KIND_PUSH = "push"
KIND_PULL_REQUEST = "pull-req"
KIND_PULL_REPLY = "pull-reply"
KIND_ACK_KNOWN = "ack-known"

TRANSMISSION_KINDS = (KIND_PUSH, KIND_PULL_REPLY)


def age_limit(n: int, c_age: float = 3.0) -> int:
    """The O(log log n) age threshold after which a process stops pushing."""
    return max(1, math.ceil(c_age * math.log2(max(2.0, math.log2(max(4, n))))))


class KarpPushPull(Algorithm):
    """One process of the push–pull protocol for a single rumor.

    Partners are drawn from ``rng``, which the driver hands in, not from
    the context's stream: :func:`run_push_pull` passes each process
    ``derive_rng(seed, "sync-proc", pid)``, the stream the runs pinned in
    ``tests/sync/test_baselines.py`` were measured with.
    """

    def __init__(self, pid: int, n: int, rng: random.Random, f: int = 0,
                 initially_informed: bool = False,
                 c_age: float = 3.0, answer_rounds: int = 4) -> None:
        self.pid = pid
        self.n = n
        self.rng = rng
        self.informed = initially_informed
        self.age = 0
        self.age_limit = age_limit(n, c_age)
        self.answer_rounds = answer_rounds
        self._rounds_past_limit = 0

    @property
    def active(self) -> bool:
        """Still initiating contacts (uninformed, or age below threshold)."""
        return self.age <= self.age_limit

    def _random_partner(self) -> int:
        partner = self.rng.randrange(self.n - 1)
        return partner + 1 if partner >= self.pid else partner

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        answering = self.active or self._rounds_past_limit <= self.answer_rounds
        for msg in inbox:
            if msg.kind == KIND_PUSH:
                if self.informed:
                    ctx.send(msg.src, None, kind=KIND_ACK_KNOWN)
                self.informed = True
            elif msg.kind == KIND_PULL_REQUEST:
                if self.informed and answering:
                    ctx.send(msg.src, "rumor", kind=KIND_PULL_REPLY)
            elif msg.kind == KIND_PULL_REPLY:
                self.informed = True
            elif msg.kind == KIND_ACK_KNOWN:
                self.age += 1

        if not self.active:
            self._rounds_past_limit += 1
            return
        partner = self._random_partner()
        if self.informed:
            ctx.send(partner, "rumor", kind=KIND_PUSH)
        else:
            ctx.send(partner, None, kind=KIND_PULL_REQUEST)

    def is_quiescent(self) -> bool:
        return self.informed and not self.active


@dataclass
class RumorSpreadResult:
    completed: bool
    rounds: int
    transmissions: int
    overhead_messages: int
    informed: int
    total_messages: int
    #: The run's :meth:`~repro.sim.metrics.Metrics.snapshot`.
    metrics: dict


def run_push_pull(
    n: int,
    seed: int = 0,
    source: int = 0,
    crashes: Optional[CrashPlan] = None,
    c_age: float = 3.0,
    max_rounds: int = 10_000,
) -> RumorSpreadResult:
    """Spread one rumor from ``source``; measure rounds and transmissions.

    The run ends in the first round after which every live process is
    quiescent; acks may still be in flight then, which is why this is not
    a monitor of :func:`~repro.sim.monitor.quiescent`.
    """
    algorithms = [
        KarpPushPull(pid, n, derive_rng(seed, "sync-proc", pid),
                     initially_informed=(pid == source), c_age=c_age)
        for pid in range(n)
    ]
    f = crashes.total if crashes is not None else 0

    def spread_and_settled(sim: Simulation) -> bool:
        return all(sim.algorithm(p).is_quiescent() for p in sim.alive_pids)

    sim = Simulation(
        n=n, f=f, algorithms=algorithms,
        adversary=ObliviousAdversary.synchronous_like(crashes),
        monitor=PredicateMonitor(spread_and_settled, "spread-and-settled"),
        seed=seed,
    )
    result = sim.run(max_steps=max_rounds)
    by_kind = result.metrics["messages_by_kind"]
    transmissions = sum(by_kind.get(kind, 0) for kind in TRANSMISSION_KINDS)
    return RumorSpreadResult(
        completed=result.completed,
        rounds=result.steps,
        transmissions=transmissions,
        overhead_messages=result.messages - transmissions,
        informed=sum(1 for p in sim.alive_pids if sim.algorithm(p).informed),
        total_messages=result.messages,
        metrics=result.metrics,
    )
