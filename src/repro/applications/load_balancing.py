"""Gossip-based load averaging (push-sum) under the paper's model.

The related-work section contrasts the paper with Boyd et al. [5], who
study gossip aggregation with Poisson clocks and no crashes. Here the same
primitive — push-sum averaging (Kempe-style) — runs under the paper's
harsher regime: adversarial schedules, bounded-but-unknown delays, and
optional crashes.

Each process holds a load ``x_i`` and maintains a pair (s, w), initially
(x_i, 1). Every local step it keeps half of (s, w) and sends the other
half to a uniformly random peer; the estimate s/w converges exponentially
to the true average. The pair conservation invariant — Σs over processes
and in-flight messages is constant — is what makes the estimate unbiased,
and is exactly what crashes break: a crash destroys the victim's share of
the mass, biasing the average toward the survivors (measured, not hidden).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..adversary.crash_plans import CrashPlan, no_crashes
from ..adversary.oblivious import ObliviousAdversary
from ..sim.engine import Simulation
from ..sim.message import Message
from ..sim.monitor import PredicateMonitor
from ..sim.process import Algorithm, Context

KIND_PUSH_SUM = "push-sum"


class PushSumProcess(Algorithm):
    """One push-sum node."""

    def __init__(self, pid: int, n: int, f: int, load: float) -> None:
        self.pid = pid
        self.n = n
        self.f = f
        self.load = float(load)
        self.s = float(load)
        self.w = 1.0

    @property
    def estimate(self) -> float:
        return self.s / self.w if self.w > 0 else 0.0

    def on_step(self, ctx: Context, inbox: List[Message]) -> None:
        for msg in inbox:
            s, w = msg.payload
            self.s += s
            self.w += w
        half_s, half_w = self.s / 2.0, self.w / 2.0
        self.s -= half_s
        self.w -= half_w
        ctx.send(ctx.random_peer(), (half_s, half_w), kind=KIND_PUSH_SUM)

    def is_quiescent(self) -> bool:
        return False  # push-sum runs until the monitor stops it


@dataclass
class LoadBalancingRun:
    n: int
    completed: bool
    reason: str
    time: Optional[int]
    messages: int
    true_average: float
    estimates: Dict[int, float]
    max_relative_error: float
    crashes: int
    sim: Simulation


def mass_in_system(sim: Simulation) -> float:
    """Σs over live processes and in-flight messages (the invariant)."""
    total = sum(
        sim.algorithm(pid).s for pid in sim.alive_pids
    )
    for pid in range(sim.n):
        total += sum(msg.payload[0] for msg in sim.network.queued_for(pid))
    return total


def run_push_sum(
    loads: Sequence[float],
    epsilon: float = 1e-3,
    d: int = 1,
    delta: int = 1,
    seed: int = 0,
    crashes: Optional[CrashPlan] = None,
    max_steps: int = 50_000,
) -> LoadBalancingRun:
    """Run push-sum until every live estimate is within ε of the average.

    With crashes the target average is still the *initial* mean of all
    loads; the reported error then exposes the mass lost to crashes.
    """
    n = len(loads)
    plan = crashes if crashes is not None else no_crashes()
    f = max(1, plan.total) if plan.total else 0
    true_average = sum(loads) / n

    nodes = [
        PushSumProcess(pid, n, f, loads[pid]) for pid in range(n)
    ]

    def converged(sim: Simulation) -> bool:
        scale = max(1e-12, abs(true_average))
        return all(
            abs(sim.algorithm(pid).estimate - true_average) / scale
            <= epsilon
            for pid in sim.alive_pids
        )

    adversary = ObliviousAdversary.uniform(d, delta, seed=seed, crashes=plan)
    sim = Simulation(
        n=n, f=f if f else max(0, n - 1), algorithms=nodes,
        adversary=adversary,
        monitor=PredicateMonitor(converged, "converged"), seed=seed,
    )
    result = sim.run(max_steps=max_steps)

    estimates = {pid: sim.algorithm(pid).estimate for pid in sim.alive_pids}
    scale = max(1e-12, abs(true_average))
    max_error = max(
        (abs(est - true_average) / scale for est in estimates.values()),
        default=0.0,
    )
    return LoadBalancingRun(
        n=n,
        completed=result.completed,
        reason=result.reason,
        time=result.completion_time,
        messages=result.messages,
        true_average=true_average,
        estimates=estimates,
        max_relative_error=max_error,
        crashes=result.metrics["crashes"],
        sim=sim,
    )
