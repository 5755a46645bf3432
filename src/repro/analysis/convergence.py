"""Dissemination curves: fraction-informed vs. time for epidemic gossip.

The classic picture behind every epidemic analysis (and behind Lemma 3's
exponential-growth argument): the number of processes holding a given
rumor grows logistically — exponential while rare, saturating as the
uninformed pool empties. This module extracts those curves from live runs
and fits the exponential phase's doubling time, which the paper's stage
arguments predict to be Θ(d + δ) global steps for fanout-1 epidemics
(one dissemination generation per local step per holder).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..adversary.crash_plans import CrashPlan, no_crashes
from ..adversary.oblivious import ObliviousAdversary
from ..core.base import make_processes
from ..sim.engine import Simulation
from ..sim.events import Observer
from ..sim.monitor import GossipCompletionMonitor, quiescent


@dataclass
class DisseminationCurve:
    """How many processes hold the tagged rumor at each global step."""

    n: int
    tagged: int
    times: List[int]
    holders: List[int]

    def fraction(self) -> List[float]:
        return [h / self.n for h in self.holders]

    def time_to_fraction(self, fraction: float) -> Optional[int]:
        """First step at which ≥ fraction of processes hold the rumor."""
        target = fraction * self.n
        for t, h in zip(self.times, self.holders):
            if h >= target:
                return t
        return None

    def doubling_time(self) -> Optional[float]:
        """Mean steps per doubling during the exponential phase.

        Measured between 2 holders and n/4 holders (the regime where the
        uninformed pool is still large and growth is genuinely
        multiplicative).
        """
        marks = []
        count = 2
        while count <= self.n / 4:
            t = self.time_to_fraction(count / self.n)
            if t is None:
                break
            marks.append(t)
            count *= 2
        if len(marks) < 2:
            return None
        gaps = [b - a for a, b in zip(marks, marks[1:])]
        return sum(gaps) / len(gaps)

    def is_monotone(self) -> bool:
        return all(b >= a for a, b in zip(self.holders, self.holders[1:]))


class SCurveSampler(Observer):
    """Observer that samples one rumor's audience at every step end.

    Attach to any simulation (directly or via ``run_gossip(observers=…)``)
    to collect the S-curve while the run proceeds — no bespoke stepping
    loop required. At each ``on_step_end`` the sampler counts the live
    processes whose rumor mask contains the tagged rumor; :meth:`curve`
    packages the samples as a :class:`DisseminationCurve`.
    """

    def __init__(self, tagged: int = 0) -> None:
        self.tagged = tagged
        self.times: List[int] = []
        self.holders: List[int] = []
        self._sim = None

    def on_attach(self, engine) -> None:
        self._sim = engine

    def on_step_end(self, t: int) -> None:
        sim = self._sim
        bit = 1 << self.tagged
        count = sum(
            1 for pid in sim.alive_pids
            if sim.algorithm(pid).rumor_mask & bit
        )
        # sim.now has already advanced past step t, matching the sampling
        # instant of the historical step-then-count measurement loop.
        self.times.append(sim.now)
        self.holders.append(count)

    def saturated(self) -> bool:
        """True once the audience is the entire live population."""
        return (
            bool(self.holders)
            and self.holders[-1] == len(self._sim.alive_pids)
        )

    def curve(self, n: int) -> DisseminationCurve:
        return DisseminationCurve(
            n=n, tagged=self.tagged,
            times=list(self.times), holders=list(self.holders),
        )

    def clone(self) -> "SCurveSampler":
        # Never deepcopy: self._sim is the whole engine; forks re-attach.
        dup = SCurveSampler(self.tagged)
        dup.times = list(self.times)
        dup.holders = list(self.holders)
        return dup


def measure_dissemination(
    algorithm_class,
    n: int = 64,
    f: int = 0,
    d: int = 1,
    delta: int = 1,
    seed: int = 0,
    tagged: int = 0,
    crashes: Optional[CrashPlan] = None,
    max_steps: int = 20_000,
    **algorithm_kwargs,
) -> DisseminationCurve:
    """Run a gossip algorithm, sampling the tagged rumor's audience."""
    plan = crashes if crashes is not None else no_crashes()
    adversary = ObliviousAdversary.uniform(d, delta, seed=seed, crashes=plan)
    sampler = SCurveSampler(tagged=tagged)
    sim = Simulation(
        n=n, f=f,
        algorithms=make_processes(n, f, algorithm_class,
                                  **algorithm_kwargs),
        adversary=adversary,
        monitor=GossipCompletionMonitor(),
        seed=seed,
        observers=(sampler,),
    )
    while sim.now < max_steps:
        sim.step()
        # The curve is complete once the tagged rumor's audience is the
        # whole live population (or the system can make no further
        # progress).
        if sampler.saturated():
            break
        if quiescent(sim) and not sim.adversary.has_pending_events(sim.now):
            break
    return sampler.curve(n)


def curves_over_latency(
    algorithm_class,
    n: int = 64,
    d_delta_pairs: Sequence = ((1, 1), (2, 2), (4, 4)),
    seed: int = 0,
    **kwargs,
) -> Dict[tuple, DisseminationCurve]:
    """One curve per synchrony regime (for doubling-time scaling checks)."""
    return {
        (d, delta): measure_dissemination(
            algorithm_class, n=n, d=d, delta=delta, seed=seed, **kwargs
        )
        for d, delta in d_delta_pairs
    }


def render_curve(curve: DisseminationCurve, width: int = 60,
                 height: int = 12) -> str:
    """A small ASCII plot of the S-curve (for examples and the CLI)."""
    if not curve.times:
        return "(empty curve)"
    t_max = curve.times[-1]
    rows = [[" "] * width for _ in range(height)]
    for t, h in zip(curve.times, curve.holders):
        x = min(width - 1, int(t / max(1, t_max) * (width - 1)))
        y = min(height - 1, int((h / curve.n) * (height - 1)))
        rows[height - 1 - y][x] = "*"
    lines = ["1.0 |" + "".join(rows[0])]
    for row in rows[1:-1]:
        lines.append("    |" + "".join(row))
    lines.append("0.0 |" + "".join(rows[-1]))
    lines.append("     " + "-" * width)
    lines.append(f"     t=0{'':{max(0, width - 12)}}t={t_max}")
    return "\n".join(lines)
