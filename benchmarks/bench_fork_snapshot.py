"""Benchmark FORK-SNAPSHOT: O(state) fork vs ``copy.deepcopy``.

The Theorem 1 adversary forks the whole execution once per Monte-Carlo
sample (Phase B), which made ``copy.deepcopy`` the hottest line of the
lower-bound pipeline. The component snapshot protocol replaces it; this
bench times both on the Theorem 1 configuration (n = 64 mid-flight under
the scripted adversary). ``copy.deepcopy`` is an oracle this repo does
not optimise, so the gate is the protocol's ≥ 3× (≈ 8× measured). That a
fork is a bit-equivalent continuation of a deepcopy, and that a restored
snapshot replays, are claims, not timings:
``tests/sim/test_fork_snapshot.py`` holds them.
"""

from __future__ import annotations

import copy

import _harness as harness

from repro.adversary.adaptive import ScriptedAdversary
from repro.core.base import make_processes
from repro.core.ears import Ears
from repro.sim.engine import Simulation

BENCHMARK = "fork_snapshot"

N = 64
F = 16
WARMUP_STEPS = 20          # Phase A-ish prefix: real queues, real state
CLONES = 60                # Phase B at samples=6 forks ~48 times
QUICK_CLONES = 15
MIN_SPEEDUP = 3.0


def make_theorem1_sim() -> Simulation:
    """The Phase B forking point: n = 64 mid-flight, scripted adversary."""
    adversary = ScriptedAdversary()
    adversary.scheduled = set(range(N - F // 2))
    sim = Simulation(
        n=N, f=F,
        algorithms=make_processes(N, F, Ears),
        adversary=adversary,
        monitor=None,
        seed=0,
    )
    sim.run_for(WARMUP_STEPS)
    return sim


def cells(quick):
    clones = QUICK_CLONES if quick else CLONES

    def measure(repeats):
        sim = make_theorem1_sim()

        def clone_with(clone):
            return harness.best_of(
                lambda: [clone(sim).now for _ in range(clones)], repeats)[0]

        # copy.deepcopy is what fork() used to be.
        return harness.versus("deepcopy_s", clone_with(copy.deepcopy),
                              "fork_s", clone_with(Simulation.fork))

    return [harness.Cell(
        "theorem1-n64-midflight",
        "clone the Phase B forking point: deepcopy of the object graph "
        "against the component snapshot protocol",
        {"n": N, "f": F, "warmup_steps": WARMUP_STEPS, "clones": clones},
        measure,
        (harness.gate("speedup", ">=", MIN_SPEEDUP),),
    )]


if __name__ == "__main__":
    raise SystemExit(harness.main(__name__))
