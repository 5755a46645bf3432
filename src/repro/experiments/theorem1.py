"""Experiment THM1: regenerate Theorem 1 / Figure 1 (the lower bound).

Runs the adaptive lower-bound adversary against a portfolio of gossip
strategies and reports, per algorithm, which branch of the dichotomy fired
and the measured cost against the analytical bound:

* message-heavy strategies (trivial, sears, tears, promiscuous ears) are
  driven into Case 1: Ω(f²) messages while the adversary withholds delivery;
* frugal cascading strategies (sparse) are driven into Case 2: a mutually
  silent pair is isolated for Ω(f(d+δ)) time;
* strategies that stay chatty forever (uniform epidemic) or whose quiescence
  itself takes Ω(f) time (ears at these scales) pay in time directly.

The lower-bound adversary is *adaptive* — it reads the live simulation to
decide withholding — so these runs are permanently ineligible for the
vectorized batch engine and always execute per-trial on the scalar
engines (see :func:`repro.sim.batch.batch_ineligibility`); an ``engine``
knob here would be a no-op by design.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
)

from ..adversary.lower_bound import LowerBoundReport, run_lower_bound
from ..analysis.stats import success_rate, summarize
from ..analysis.tables import render_table
from .campaign import run_jobs
from ..core.ears import Ears
from ..core.sears import Sears
from ..core.sparse import SparseGossip
from ..core.tears import Tears
from ..core.trivial import TrivialGossip
from ..core.uniform import UniformEpidemicGossip


def _make(cls, **kwargs) -> Callable:
    def factory(pid: int, n: int, f: int):
        return cls(pid=pid, n=n, f=f, **kwargs)

    return factory


#: The strategy portfolio the adversary is run against.
PORTFOLIO: Dict[str, Callable] = {
    "trivial": _make(TrivialGossip),
    "ears": _make(Ears),
    "sears": _make(Sears),
    "tears": _make(Tears),
    "uniform": _make(UniformEpidemicGossip),
    "sparse": _make(SparseGossip, budget=1),
}


def _theorem1_job(args):
    """One (algorithm, seed) lower-bound execution.

    Module-level so parallel runs can ship it to worker processes; the
    algorithm factory is looked up in :data:`PORTFOLIO` by name in the
    worker (the factories themselves are closures and not picklable).
    """
    (name, n, f, seed, samples, phase1_cap, promiscuity_factor,
     slow_quiesce_threshold) = args
    return run_lower_bound(
        PORTFOLIO[name], n=n, f=f, seed=seed, samples=samples,
        phase1_cap=phase1_cap,
        promiscuity_factor=promiscuity_factor,
        slow_quiesce_threshold=slow_quiesce_threshold,
    )


def _decode_report(payload: Dict[str, Any]) -> LowerBoundReport:
    """Revive a report from its manifest form (undo JSON coercions:
    int dict keys became strings, the isolation tuple became a list)."""
    data = dict(payload)
    data["expected_sends"] = {
        int(key): value
        for key, value in (data.get("expected_sends") or {}).items()
    }
    if data.get("isolation_pair") is not None:
        data["isolation_pair"] = tuple(data["isolation_pair"])
    return LowerBoundReport(**data)


@dataclass
class Theorem1Row:
    algorithm: str
    n: int
    f: int
    cases: Dict[str, int]
    time_forced: float       # mean measured time when the time branch fired
    messages_forced: float   # mean measured messages when Case 1 fired
    time_bound: float
    message_bound: float
    isolation_success_rate: Optional[float]
    reports: List[LowerBoundReport] = field(repr=False, default_factory=list)

    @property
    def dominant_case(self) -> str:
        return max(self.cases, key=self.cases.get)

    @property
    def bound_satisfied(self) -> bool:
        """At least one branch's measured cost reached its Ω(·) target."""
        return (
            self.messages_forced >= self.message_bound
            or self.time_forced >= self.time_bound
        )


def run_theorem1(
    n: int = 64,
    f: int = 16,
    seeds: Iterable[int] = range(3),
    algorithms: Optional[Sequence[str]] = None,
    samples: int = 4,
    phase1_cap: int = 1500,
    promiscuity_factor: float = 32.0,
    slow_quiesce_threshold: Optional[int] = None,
    processes: int = 1,
    trial_timeout: Optional[float] = None,
    retries: int = 0,
    manifest: Optional[Any] = None,
    checkpoint_every: int = 4,
    shutdown: Optional[Callable[[], bool]] = None,
) -> List[Theorem1Row]:
    """Run the Theorem 1 adversary against each portfolio strategy.

    With ``processes > 1`` the (algorithm × seed) executions run across a
    :class:`~repro.experiments.pool.TrialPool`; each execution is a
    deterministic function of its arguments, so results are identical to
    the sequential run.

    ``trial_timeout``/``retries`` make the run fault-tolerant: a seed
    whose execution hangs or raises is dropped from its algorithm's
    aggregate (after the retries), and an algorithm whose every seed
    failed is omitted from the result rather than aborting the whole
    portfolio.

    ``manifest`` checkpoints the portfolio: every (algorithm, seed)
    report is persisted to a
    :class:`~repro.experiments.campaign.CampaignManifest` as it lands,
    so a killed run resumes seed-for-seed, re-executing only the missing
    pairs.  ``shutdown`` drains on a graceful-stop request
    (:class:`~repro.experiments.campaign.CampaignDrained`).
    """
    names = list(algorithms) if algorithms else list(PORTFOLIO)
    seeds = list(seeds)
    jobs = [
        (name, n, f, seed, samples, phase1_cap, promiscuity_factor,
         slow_quiesce_threshold)
        for name in names for seed in seeds
    ]
    # A failed seed (after its retries) reports as None.
    all_reports = [
        outcome.value for outcome in run_jobs(
            _theorem1_job, jobs,
            processes=processes, trial_timeout=trial_timeout,
            retries=retries, manifest=manifest,
            meta={
                "driver": "theorem1",
                "algorithms": names,
                "n": n, "f": f,
                "rng": {"seeds": seeds},
            },
            checkpoint_every=checkpoint_every, shutdown=shutdown,
            sink=lambda _index, report: dataclasses.asdict(report),
            decode=_decode_report,
        )
    ]
    rows = []
    for index, name in enumerate(names):
        reports = [
            report for report in
            all_reports[index * len(seeds):(index + 1) * len(seeds)]
            if report is not None
        ]
        if not reports:
            continue  # every seed failed; degrade to a partial portfolio
        cases: Dict[str, int] = {}
        for report in reports:
            cases[report.case] = cases.get(report.case, 0) + 1
        times = [
            float(r.measured_time) for r in reports
            if r.measured_time
        ]
        messages = [
            float(r.measured_messages) for r in reports
            if r.measured_messages is not None
        ]
        isolations = [
            r.isolation_success for r in reports if r.case == "isolation"
        ]
        rows.append(
            Theorem1Row(
                algorithm=name, n=n, f=reports[0].f, cases=cases,
                time_forced=summarize(times).mean if times else 0.0,
                messages_forced=(
                    summarize(messages).mean if messages else 0.0
                ),
                time_bound=float(reports[0].f),  # (d+δ)·f/2 at d = δ = 1
                message_bound=(reports[0].f / 4)
                * (reports[0].f / promiscuity_factor),
                isolation_success_rate=(
                    success_rate(isolations) if isolations else None
                ),
                reports=reports,
            )
        )
    return rows


def format_theorem1(rows: Sequence[Theorem1Row]) -> str:
    return render_table(
        ["algorithm", "n", "f_eff", "dominant case", "forced time",
         "forced msgs", "time bound", "msg bound", "isolation ok",
         "bound met"],
        [
            [r.algorithm, r.n, r.f, r.dominant_case, r.time_forced,
             r.messages_forced, r.time_bound, r.message_bound,
             "-" if r.isolation_success_rate is None
             else r.isolation_success_rate,
             r.bound_satisfied]
            for r in rows
        ],
        title="Theorem 1 — adaptive adversary forces Ω(n+f²) messages or "
              "Ω(f(d+δ)) time",
    )
