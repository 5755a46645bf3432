"""Experiment COR2: regenerate Corollary 2 (the cost of asynchrony).

The corollary compares the best asynchronous gossip against the best
synchronous gossip: with f possible failures, any asynchronous algorithm
has time CoA Ω(f) or message CoA Ω(1 + f²/n), the maxima taken over
worst-case (d, δ) executions.

At finite simulation scale we demonstrate the corollary in three honest
pieces:

* **benign ratios** — at d = δ = 1 every asynchronous algorithm is within
  small constant factors of the synchronous baseline: asynchrony is only
  expensive in *worst-case* executions;
* **the dichotomy** — under the Theorem 1 adversary each algorithm's forced
  cost reaches its Ω(·) floor in absolute terms (Ω(f(d+δ)) time or
  Ω(f²) messages);
* **growth in f** — sweeping f, the forced time of a frugal algorithm grows
  linearly in f and the forced message count of a chatty one quadratically,
  which is exactly the Ω(f) / Ω(1 + f²/n) ratio growth of the corollary
  (the synchronous denominator does not grow with f).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Sequence

from ..adversary.crash_plans import random_crashes
from ..analysis.coa import CoaReport, coa_report
from ..analysis.stats import summarize, summarize_completed
from ..analysis.tables import render_table
from ..spec.runspec import RunSpec
from ..store import execute_batch
from ..sync import run_ck_gossip
from .theorem1 import Theorem1Row, run_theorem1


@dataclass
class Corollary2Row:
    algorithm: str
    n: int
    f: int
    benign: CoaReport
    forced_time: float
    forced_messages: float
    time_floor: float      # Ω(f(d+δ)) at d = δ = 1, the proof's (d+δ)f/2
    message_floor: float   # the Case 1 expectation (f/4)·(f/32)
    dominant_case: str

    @property
    def dichotomy_met(self) -> bool:
        """One branch of the corollary's disjunction fired."""
        return (
            self.forced_time >= self.time_floor
            or self.forced_messages >= self.message_floor
        )


def _sync_baseline(n: int, f: int, seeds: Sequence[int]):
    times, msgs = [], []
    for seed in seeds:
        result = run_ck_gossip(
            n, f=f, crashes=random_crashes(n, f, 6, seed=seed), seed=seed
        )
        if result.completed:
            times.append(float(result.steps))
            msgs.append(float(result.messages))
    return summarize(times).mean, summarize(msgs).mean


def _sparse_benign_metrics(n: int, f: int, seed: int) -> dict:
    """One failure-free synchronous-like run of the frugal strategy
    (budget 1), stopped at gathering — not a RunSpec: specs complete at
    quiescence."""
    from ..adversary.oblivious import ObliviousAdversary
    from ..core.base import make_processes
    from ..core.properties import gathering_holds
    from ..core.sparse import SparseGossip
    from ..sim.engine import Simulation
    from ..sim.monitor import PredicateMonitor

    sim = Simulation(
        n=n, f=f,
        algorithms=make_processes(n, f, SparseGossip, budget=1),
        adversary=ObliviousAdversary.synchronous_like(),
        monitor=PredicateMonitor(gathering_holds, "gathering"),
        seed=seed,
    )
    result = sim.run(max_steps=20_000)
    return {"completed": result.completed, "time": result.completion_time,
            "messages": result.messages}


def _benign_measurement(name: str, n: int, f: int, seeds: Sequence[int]):
    if name == "sparse":
        records = [{"metrics": _sparse_benign_metrics(n, f, seed)}
                   for seed in seeds]
    else:
        records = execute_batch([
            RunSpec(algorithm=name, n=n, f=f, seed=seed, crashes=f)
            for seed in seeds
        ])
    _, time, messages = summarize_completed(records)
    return time.mean, messages.mean


def run_corollary2(
    n: int = 64,
    f: int = 16,
    seeds: Iterable[int] = range(3),
    algorithms: Sequence[str] = ("trivial", "ears", "sears", "sparse"),
) -> List[Corollary2Row]:
    seeds = list(seeds)
    sync_time, sync_messages = _sync_baseline(n, f, seeds)
    theorem_rows: dict = {
        row.algorithm: row
        for row in run_theorem1(n=n, f=f, seeds=seeds,
                                algorithms=list(algorithms))
    }

    rows = []
    for name in algorithms:
        asynch_time, asynch_messages = _benign_measurement(name, n, f, seeds)
        benign = coa_report(
            name, n, f,
            asynch_time=asynch_time, asynch_messages=asynch_messages,
            synch_time=sync_time, synch_messages=sync_messages,
        )
        theorem: Theorem1Row = theorem_rows[name]
        rows.append(
            Corollary2Row(
                algorithm=name, n=n, f=theorem.f, benign=benign,
                forced_time=theorem.time_forced,
                forced_messages=theorem.messages_forced,
                time_floor=theorem.time_bound,
                message_floor=theorem.message_bound,
                dominant_case=theorem.dominant_case,
            )
        )
    return rows


def run_coa_growth(
    n: int = 256,
    fs: Sequence[int] = (32, 64),
    seeds: Iterable[int] = range(2),
):
    """The ratio-growth half of the corollary: forced costs vs f.

    Returns ``{f: {"sparse_time": …, "sears_messages": …}}``. The sparse
    (frugal) algorithm's forced time grows linearly in f — Case 2 isolates
    a pair for (d+δ)·f/2 — and the sears (chatty) algorithm's forced
    message count quadratically — Case 1 lets f/2 processes spam for f/2
    steps each — while the synchronous baseline is f-independent. These are
    exactly the corollary's Ω(f) and Ω(1 + f²/n) ratio growths.
    """
    seeds = list(seeds)
    out = {}
    for f in fs:
        sparse_times, sears_msgs = [], []
        for seed in seeds:
            # The growth figure measures the Case 1/2 costs specifically,
            # so the slow-quiesce preemption threshold is raised (sparse
            # gossip's quiescence time depends on n, not f, and would
            # otherwise mask the f-dependence being measured).
            sparse = run_theorem1(
                n=n, f=f, seeds=[seed], algorithms=("sparse",),
                promiscuity_factor=8.0, slow_quiesce_threshold=10 * f,
            )[0]
            # Only Case 2 isolations measure the f-dependent cost; the
            # slow-quiesce branch's time reflects n, not f.
            if sparse.dominant_case == "isolation" and sparse.time_forced:
                sparse_times.append(sparse.time_forced)
            sears = run_theorem1(
                n=n, f=f, seeds=[seed], algorithms=("sears",),
            )[0]
            if sears.messages_forced:
                sears_msgs.append(sears.messages_forced)
        out[f] = {
            "sparse_time": summarize(
                sparse_times or [float("nan")]).mean,
            "sears_messages": summarize(
                sears_msgs or [float("nan")]).mean,
        }
    return out


def format_corollary2(rows: Sequence[Corollary2Row]) -> str:
    return render_table(
        ["algorithm", "n", "f_eff", "benign T-ratio", "benign M-ratio",
         "case", "forced T", "floor(T)", "forced M", "floor(M)",
         "dichotomy met"],
        [
            [r.algorithm, r.n, r.f, r.benign.time_ratio,
             r.benign.message_ratio, r.dominant_case, r.forced_time,
             r.time_floor, r.forced_messages, r.message_floor,
             r.dichotomy_met]
            for r in rows
        ],
        title="Corollary 2 — benign vs. adversarial cost of asynchrony",
    )
