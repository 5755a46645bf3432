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

Each (algorithm, seed) execution is a ``lower-bound`` adversary
:class:`~repro.spec.runspec.RunSpec` (:func:`theorem1_specs`), so a stored,
parallel or resumable portfolio is an ordinary spec campaign
(``execute_batch``, ``repro batch``, ``repro fleet run``) whose records
:func:`theorem1_rows` reduces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..analysis.stats import success_rate, summarize
from ..analysis.tables import render_table
from ..spec.registry import GOSSIP_ALGORITHMS, LOWER_BOUND
from ..spec.runspec import RunSpec
from ..store import execute_batch

#: The strategy portfolio the adversary is run against, as spec ``params``.
PORTFOLIO_PARAMS: Dict[str, Optional[Dict[str, Any]]] = {
    "trivial": None, "ears": None, "sears": None, "tears": None,
    "uniform": None, "sparse": {"budget": 1},
}

#: The same portfolio as ``(pid, n, f) -> process`` factories, for
#: :func:`~repro.adversary.lower_bound.run_lower_bound`.
PORTFOLIO: Dict[str, Callable] = {
    name: partial(GOSSIP_ALGORITHMS[name], **(params or {}))
    for name, params in PORTFOLIO_PARAMS.items()
}


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


def theorem1_specs(
    n: int = 64,
    f: int = 16,
    seeds: Iterable[int] = range(3),
    algorithms: Optional[Sequence[str]] = None,
    samples: int = 4,
    phase1_cap: int = 1500,
    promiscuity_factor: float = 32.0,
    slow_quiesce_threshold: Optional[int] = None,
) -> List[RunSpec]:
    """One ``lower-bound`` spec per (algorithm, seed), algorithm-major;
    ``algorithms`` defaults to the whole :data:`PORTFOLIO_PARAMS`."""
    adversary = {"name": LOWER_BOUND, "samples": samples,
                 "phase1_cap": phase1_cap,
                 "promiscuity_factor": promiscuity_factor,
                 "slow_quiesce_threshold": slow_quiesce_threshold}
    seeds = list(seeds)
    return [
        RunSpec(algorithm=name, n=n, f=f, seed=seed,
                params=PORTFOLIO_PARAMS[name], adversary=adversary)
        for name in (algorithms or PORTFOLIO_PARAMS) for seed in seeds
    ]


def theorem1_rows(records: Iterable[Dict[str, Any]]) -> List[Theorem1Row]:
    """One row per algorithm of a :func:`theorem1_specs` campaign's
    records, in campaign order. A failed record is dropped, and an
    algorithm whose every seed failed gets no row."""
    groups: Dict[str, List[Dict[str, Any]]] = {}
    for record in records:
        if not record.get("failed"):
            groups.setdefault(record["spec"]["algorithm"], []).append(record)
    rows = []
    for name, group in groups.items():
        reports = [record["metrics"] for record in group]
        f = reports[0]["f"]
        factor = group[0]["spec"]["adversary"]["promiscuity_factor"]
        times = [float(r["measured_time"]) for r in reports
                 if r["measured_time"]]
        messages = [float(r["measured_messages"]) for r in reports
                    if r["measured_messages"] is not None]
        isolations = [r["isolation_success"] for r in reports
                      if r["case"] == "isolation"]
        rows.append(Theorem1Row(
            algorithm=name, n=reports[0]["n"], f=f,
            cases=Counter(r["case"] for r in reports),
            time_forced=summarize(times).mean if times else 0.0,
            messages_forced=summarize(messages).mean if messages else 0.0,
            time_bound=float(f),  # (d+δ)·f/2 at d = δ = 1
            message_bound=(f / 4) * (f / factor),
            isolation_success_rate=(
                success_rate(isolations) if isolations else None),
        ))
    return rows


def run_theorem1(
    n: int = 64,
    f: int = 16,
    seeds: Iterable[int] = range(3),
    algorithms: Optional[Sequence[str]] = None,
    samples: int = 4,
    phase1_cap: int = 1500,
    promiscuity_factor: float = 32.0,
    slow_quiesce_threshold: Optional[int] = None,
) -> List[Theorem1Row]:
    """Run the Theorem 1 adversary against each portfolio strategy in
    process; a stored, parallel or resumable run gives ``execute_batch``
    the :func:`theorem1_specs` itself."""
    return theorem1_rows(execute_batch(theorem1_specs(
        n, f, seeds, algorithms, samples, phase1_cap, promiscuity_factor,
        slow_quiesce_threshold)))


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
