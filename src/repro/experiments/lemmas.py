"""Empirical validation of the paper's internal lemmas.

The PODC paper sketches its proofs and defers details to the full version;
this module makes the lemmas' *statements* measurable on live executions.

EARS (Section 3.2) — milestone extraction. Stepping an EARS run manually
and snapshotting every process's rumor mask, informed-list coverage and
sleep state yields the proof's milestone sequence:

1. *gathering* (Lemma 4): every live process holds every live rumor;
2. *shooting* (Lemma 5): every process q is certified by someone
   (∃p: q ∉ L(p)) — in fact we record when every rumor has been sent to
   every process, i.e. some L(p) = ∅;
3. *first sleep*: some process completes the shut-down phase;
4. *all asleep*: global quiescence.

The analysis says consecutive milestones are Θ(log n (d+δ)) apart (one
stage each); the experiments check the two scalings separately — gaps grow
~linearly in (d+δ) at fixed n, and ~logarithmically in n at fixed (d+δ).
The *exchange property* (Lemma 3) is measured directly: the time for a
tagged rumor to go from its origin to all live processes, which the
epidemic analysis puts at Θ(log n) dissemination generations.

TEARS (Section 5.2) — safe epochs and well-distributed rumors, using the
instrumentation built into :class:`~repro.core.tears.Tears`:

* Lemma 8: every process sends, per local step, either 0 or between a−κ
  and a+κ point-to-point messages;
* Lemma 9: at least n/2 − n/log n rumors are *well-distributed* (safe in
  ≥ √n non-faulty processes);
* Lemma 10: every well-distributed rumor reaches every non-faulty process;
* Lemma 11: every non-faulty process ends with a majority of all rumors.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

from .._util import popcount
from ..adversary.crash_plans import CrashPlan, no_crashes
from ..adversary.oblivious import ObliviousAdversary
from ..core.base import make_processes
from ..core.ears import Ears
from ..core.rumors import mask_of
from ..core.tears import KIND_FIRST_LEVEL, KIND_SECOND_LEVEL, Tears
from ..sim.engine import Simulation
from ..sim.events import TraceObserver
from ..sim.monitor import GossipCompletionMonitor
from ..sim.trace import EventTrace


# --------------------------------------------------------------------- #
# EARS milestones (Lemmas 3-5 and the shut-down argument)
# --------------------------------------------------------------------- #

@dataclass
class EarsMilestones:
    """Milestone times of one EARS execution (global steps)."""

    n: int
    f: int
    d: int
    delta: int
    gathering: Optional[int]       # Lemma 4's event
    shooting: Optional[int]        # Lemma 5's event (some L(p) empty)
    first_sleep: Optional[int]
    all_asleep: Optional[int]
    exchange_time: Optional[int]   # Lemma 3: tagged rumor origin -> all
    completed: bool

    @property
    def shutdown_wave(self) -> Optional[int]:
        """Steps between the first process sleeping and global sleep."""
        if self.first_sleep is None or self.all_asleep is None:
            return None
        return self.all_asleep - self.first_sleep


def measure_ears_milestones(
    n: int = 64,
    f: int = 16,
    d: int = 1,
    delta: int = 1,
    seed: int = 0,
    crashes: Optional[CrashPlan] = None,
    tagged: int = 0,
    max_steps: int = 50_000,
) -> EarsMilestones:
    """Step an EARS run manually, recording when each milestone first holds."""
    plan = crashes if crashes is not None else no_crashes()
    adversary = ObliviousAdversary.uniform(d, delta, seed=seed, crashes=plan)
    monitor = GossipCompletionMonitor()
    sim = Simulation(
        n=n, f=f, algorithms=make_processes(n, f, Ears),
        adversary=adversary, monitor=monitor, seed=seed,
    )

    gathering = shooting = first_sleep = all_asleep = exchange = None
    while sim.now < max_steps:
        sim.step()
        alive = sim.alive_pids
        if not alive:
            break
        algorithms = [sim.algorithm(pid) for pid in alive]

        if exchange is None and all(
            tagged in algo.rumors for algo in algorithms
        ):
            exchange = sim.now
        if gathering is None:
            target = mask_of(alive)
            if all(not (target & ~a.rumor_mask) for a in algorithms):
                gathering = sim.now
        if shooting is None and any(a.l_is_empty() for a in algorithms):
            shooting = sim.now
        if first_sleep is None and any(a.asleep for a in algorithms):
            first_sleep = sim.now
        if all_asleep is None and all(a.asleep for a in algorithms):
            all_asleep = sim.now
        if all_asleep is not None and sim.network.in_flight == 0:
            break

    completed = all_asleep is not None and monitor.check(sim)
    return EarsMilestones(
        n=n, f=f, d=d, delta=delta,
        gathering=gathering, shooting=shooting,
        first_sleep=first_sleep, all_asleep=all_asleep,
        exchange_time=exchange, completed=completed,
    )


# --------------------------------------------------------------------- #
# TEARS safe-epoch lemmas (Lemmas 8-11)
# --------------------------------------------------------------------- #

@dataclass
class TearsLemmaReport:
    n: int
    f: int
    completed: bool
    #: Lemma 8: per-(process, step) first+second-level send counts outside
    #: {0} ∪ [a−κ, a+κ].
    lemma8_violations: int
    send_batch_sizes: List[int]
    a: float
    kappa: float
    #: Lemma 9: the number of well-distributed rumors and its floor.
    well_distributed: int
    lemma9_floor: float
    #: Lemma 10: well-distributed rumors missing from some correct process.
    lemma10_missing: int
    #: Lemma 11: minimum rumor count over correct processes vs majority.
    min_rumors: int
    majority_needed: int


def measure_tears_lemmas(
    n: int = 128,
    f: Optional[int] = None,
    d: int = 1,
    delta: int = 1,
    seed: int = 0,
    crashes: Optional[CrashPlan] = None,
    params=None,
    max_steps: int = 20_000,
) -> TearsLemmaReport:
    """Run TEARS with a trace and evaluate Lemmas 8-11 on the execution."""
    if f is None:
        f = (n - 1) // 2
    plan = crashes if crashes is not None else no_crashes()
    trace = EventTrace()
    adversary = ObliviousAdversary.uniform(d, delta, seed=seed, crashes=plan)
    kwargs = {"params": params} if params is not None else {}
    sim = Simulation(
        n=n, f=f, algorithms=make_processes(n, f, Tears, **kwargs),
        adversary=adversary, monitor=GossipCompletionMonitor(majority=True),
        seed=seed, observers=(TraceObserver(trace),),
    )
    result = sim.run(max_steps=max_steps)

    tears0: Tears = sim.algorithm(0)
    a = min(float(n - 1), tears0.params.a(n))
    kappa = tears0.params.kappa(n)

    # Lemma 8: group sends by (src, step).
    per_step: Dict[tuple, int] = defaultdict(int)
    for event in trace.of_kind("send"):
        if event.get("kind") in (KIND_FIRST_LEVEL, KIND_SECOND_LEVEL):
            per_step[(event.get("src"), event.t)] += 1
    batch_sizes = sorted(per_step.values())
    lemma8_violations = sum(
        1 for size in batch_sizes
        if not (a - kappa <= size <= a + kappa)
    )

    # Well-distributed rumors (Lemma 9): safe in >= sqrt(n) correct procs.
    correct = sim.alive_pids
    safe_count = [0] * n
    for pid in correct:
        safe = sim.algorithm(pid).safe_rumor_mask
        for rumor in range(n):
            if safe >> rumor & 1:
                safe_count[rumor] += 1
    threshold = math.sqrt(n)
    well_distributed_mask = mask_of(
        r for r in range(n) if safe_count[r] >= threshold
    )
    well_distributed = popcount(well_distributed_mask)
    lemma9_floor = n / 2 - n / max(1.0, math.log(n))

    # Lemma 10: every well-distributed rumor known to every correct proc.
    lemma10_missing = 0
    for pid in correct:
        lemma10_missing += popcount(
            well_distributed_mask & ~sim.algorithm(pid).rumor_mask
        )

    min_rumors = min(
        (popcount(sim.algorithm(pid).rumor_mask) for pid in correct),
        default=0,
    )
    return TearsLemmaReport(
        n=n, f=f, completed=result.completed,
        lemma8_violations=lemma8_violations,
        send_batch_sizes=batch_sizes,
        a=a, kappa=kappa,
        well_distributed=well_distributed,
        lemma9_floor=lemma9_floor,
        lemma10_missing=lemma10_missing,
        min_rumors=min_rumors,
        majority_needed=n // 2 + 1,
    )
