"""Experiment T1: regenerate Table 1 (gossip complexity trade-offs).

For each algorithm row of the paper's Table 1 — CK [9] (synchronous),
Trivial, ears, sears, tears — run the algorithm under the oblivious
(d, δ)-adversary with f random crashes and report measured time and message
complexity next to the paper's predicted bound shape. The lower-bound row
(Theorem 1) is regenerated by :mod:`repro.experiments.theorem1`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..adversary.crash_plans import random_crashes
from ..analysis import bounds
from ..analysis.stats import Summary, summarize, summarize_completed
from ..analysis.tables import render_table
from ..core.params import DEFAULT_SEARS
from ..spec.runspec import RunSpec
from ..store import execute_batch
from ..sync import run_ck_gossip


@dataclass
class Table1Row:
    algorithm: str
    model: str
    n: int
    f: int
    d: int
    delta: int
    time: Summary
    messages: Summary
    completion_rate: float
    bound_time: float
    bound_messages: float


ASYNC_ALGORITHMS = ("trivial", "ears", "sears", "tears")


def _bounds_for(algorithm: str, n: int, f: int, d: int, delta: int):
    if algorithm == "trivial":
        return bounds.trivial_time(d, delta), bounds.trivial_messages(n)
    if algorithm == "ears":
        return (bounds.ears_time(n, f, d, delta),
                bounds.ears_messages(n, f, d, delta))
    if algorithm == "sears":
        eps = DEFAULT_SEARS.eps
        return (bounds.sears_time(n, f, eps, d, delta),
                bounds.sears_messages(n, f, eps, d, delta))
    if algorithm == "tears":
        return bounds.tears_time(d, delta), bounds.tears_messages(n)
    if algorithm == "ck-sync":
        return bounds.ck_time(n), bounds.ck_messages(n)
    raise ValueError(f"unknown algorithm {algorithm!r}")


def run_table1(
    n: int = 64,
    f: Optional[int] = None,
    d: int = 2,
    delta: int = 2,
    seeds: Iterable[int] = range(3),
    algorithms: Sequence[str] = ASYNC_ALGORITHMS,
    crash: bool = True,
    include_sync: bool = True,
) -> List[Table1Row]:
    """Measure every Table 1 row at one (n, f, d, δ) configuration.

    The asynchronous rows are submitted as a :class:`RunSpec` batch.
    """
    if f is None:
        f = n // 4
    seeds = list(seeds)
    rows: List[Table1Row] = []

    if include_sync:
        times, msgs = [], []
        for seed in seeds:
            crashes = random_crashes(n, f, 6, seed=seed) if crash else None
            result = run_ck_gossip(n, f=f, crashes=crashes, seed=seed)
            if result.completed:
                times.append(float(result.steps))
                msgs.append(float(result.messages))
        bound_t, bound_m = _bounds_for("ck-sync", n, f, 1, 1)
        rows.append(
            Table1Row(
                algorithm="ck-sync", model="synch", n=n, f=f, d=1, delta=1,
                time=summarize(times), messages=summarize(msgs),
                completion_rate=len(times) / len(seeds),
                bound_time=bound_t, bound_messages=bound_m,
            )
        )

    for algorithm in algorithms:
        specs = [
            RunSpec(
                kind="gossip", algorithm=algorithm, n=n, f=f, d=d,
                delta=delta, seed=seed, crashes=f if crash else None,
            )
            for seed in seeds
        ]
        rate, time, messages = summarize_completed(
            execute_batch(specs))
        bound_t, bound_m = _bounds_for(algorithm, n, f, d, delta)
        rows.append(
            Table1Row(
                algorithm=algorithm, model="part-synch", n=n, f=f,
                d=d, delta=delta, time=time, messages=messages,
                completion_rate=rate,
                bound_time=bound_t, bound_messages=bound_m,
            )
        )
    return rows


def format_table1(rows: Sequence[Table1Row]) -> str:
    return render_table(
        ["algorithm", "model", "n", "f", "d", "delta",
         "time", "±", "messages", "±", "ok", "bound(T)", "bound(M)"],
        [
            [r.algorithm, r.model, r.n, r.f, r.d, r.delta,
             r.time.mean, r.time.ci95, r.messages.mean, r.messages.ci95,
             r.completion_rate, r.bound_time, r.bound_messages]
            for r in rows
        ],
        title="Table 1 — gossip under an oblivious adversary "
              "(measured vs. paper bound shapes)",
    )
