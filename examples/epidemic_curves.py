#!/usr/bin/env python3
"""Watch a rumor spread: epidemic S-curves and doubling times.

The picture behind every epidemic analysis (and the paper's Lemma 3):
a rumor's audience grows exponentially while rare — doubling every
Θ(d + δ) steps for a fanout-1 epidemic — then saturates as the uninformed
pool empties. This demo plots the S-curve for a tagged rumor under EARS,
shows how spamming (SEARS) collapses the dissemination generations, and
how latency stretches the doubling time.

The curves come from live runs: an observer samples the tagged rumor's
audience at every step end, and the exponential phase's doubling time is
read off the samples.

Run:  python examples/epidemic_curves.py
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.adversary.crash_plans import CrashPlan, no_crashes
from repro.adversary.oblivious import ObliviousAdversary
from repro.core.base import make_processes
from repro.core.ears import Ears
from repro.core.sears import Sears
from repro.sim.engine import Simulation
from repro.sim.events import Observer
from repro.sim.monitor import GossipCompletionMonitor, quiescent


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
    """A small ASCII plot of the S-curve."""
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


N = 128


def main() -> None:
    curve = measure_dissemination(Ears, n=N, seed=3)
    print(f"EARS, n={N}, d=δ=1: rumor 0's audience over time")
    print(render_curve(curve, width=64, height=10))
    print(f"holders: {curve.holders[:12]} ... full at t="
          f"{curve.time_to_fraction(1.0)}")
    print(f"doubling time in the exponential phase: "
          f"{curve.doubling_time():.2f} steps")
    print()

    print("latency stretches the generations (EARS doubling time):")
    for (d, delta), c in curves_over_latency(
        Ears, n=64, d_delta_pairs=((1, 1), (2, 2), (4, 4)), seed=1
    ).items():
        print(f"  d={d}, δ={delta}:  doubling ≈ {c.doubling_time():.2f} "
              f"steps, full spread at t={c.time_to_fraction(1.0)}")
    print()

    spam = measure_dissemination(Sears, n=N, seed=3)
    print(f"SEARS (spamming fanout) reaches everyone at "
          f"t={spam.time_to_fraction(1.0)} vs EARS' "
          f"t={curve.time_to_fraction(1.0)} — Section 4's point: "
          f"multiplying the audience by n^ε per generation leaves only "
          f"1/ε generations.")


if __name__ == "__main__":
    main()
