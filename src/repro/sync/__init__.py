"""Synchronous baselines.

The comparison side of Table 1 and Corollary 2: algorithms that *know*
d = δ = 1 and count rounds. They run on the d = δ = 1 execution of
:class:`~repro.sim.engine.Simulation`
(:meth:`~repro.adversary.oblivious.ObliviousAdversary.synchronous_like`),
where one step is one round.

Crashes there take effect at a round boundary: a process crashed at round r
sends nothing from round r on, and what it sent in round r − 1 still
delivers. The paper's synchronous references tolerate harsher mid-round
crashes, which is part of why the CK-style baseline is a documented
approximation (DESIGN.md §5).
"""

from typing import Optional

from ..adversary.crash_plans import CrashPlan
from ..adversary.oblivious import ObliviousAdversary
from ..sim.engine import RunResult, Simulation
from ..sim.monitor import GossipCompletionMonitor
from .ck_gossip import CkStyleGossip
from .expander import (
    overlay_diameter_bound,
    skip_graph_neighbors,
)
from .karp import KarpPushPull, RumorSpreadResult, age_limit, run_push_pull


def run_ck_gossip(
    n: int,
    f: int = 0,
    crashes: Optional[CrashPlan] = None,
    seed: int = 0,
    max_rounds: int = 10_000,
) -> RunResult:
    """Run the deterministic expander-overlay gossip baseline to completion.

    Completion: every live process holds every live process's rumor and the
    flooding has stabilized (each process's quiet budget exhausted). The
    result's ``steps`` are rounds.
    """
    neighbors = skip_graph_neighbors(n)
    algorithms = [
        CkStyleGossip(pid, n, f, neighbors=neighbors) for pid in range(n)
    ]
    sim = Simulation(
        n=n, f=f, algorithms=algorithms,
        adversary=ObliviousAdversary.synchronous_like(crashes),
        monitor=GossipCompletionMonitor(), seed=seed,
    )
    return sim.run(max_steps=max_rounds)


__all__ = [
    "CkStyleGossip",
    "KarpPushPull",
    "RumorSpreadResult",
    "age_limit",
    "overlay_diameter_bound",
    "run_ck_gossip",
    "run_push_pull",
    "skip_graph_neighbors",
]
