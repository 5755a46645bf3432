"""Experiment T2: regenerate Table 2 (consensus complexity trade-offs).

Rows: Canetti–Rabin with all-to-all get-core, CR-ears, CR-sears, CR-tears
(+ the Ben-Or historical baseline for contrast). For each, run randomized
binary consensus on an adversarial near-even input split, with f < n/2
crashes, and report decision time and message complexity next to the
paper's predicted shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..analysis import bounds
from ..analysis.stats import Summary, summarize_completed
from ..analysis.tables import render_table
from ..core.params import DEFAULT_SEARS
from ..spec.runspec import RunSpec
from ..store import execute_batch


@dataclass
class Table2Row:
    protocol: str
    n: int
    f: int
    d: int
    delta: int
    time: Summary
    messages: Summary
    rounds: Summary
    completion_rate: float
    agreement_rate: float
    bound_time: float
    bound_messages: float


TRANSPORT_ROWS = ("all-to-all", "ears", "sears", "tears")


def _bounds_for(transport: str, n: int, d: int, delta: int):
    if transport == "all-to-all":
        return bounds.cr_time(d, delta), bounds.cr_messages(n)
    if transport == "ears":
        return (bounds.cr_ears_time(n, d, delta),
                bounds.cr_ears_messages(n, d, delta))
    if transport == "sears":
        eps = DEFAULT_SEARS.eps
        return (bounds.cr_sears_time(eps, d, delta),
                bounds.cr_sears_messages(n, eps, d, delta))
    if transport == "tears":
        return bounds.cr_tears_time(d, delta), bounds.cr_tears_messages(n)
    if transport == "ben-or":
        # No closed form in the paper (exponential expected time);
        # reference = one quadratic round.
        return float(d + delta), float(n * n)
    raise ValueError(f"unknown transport {transport!r}")


def run_table2(
    n: int = 32,
    f: Optional[int] = None,
    d: int = 2,
    delta: int = 2,
    seeds: Iterable[int] = range(3),
    transports: Sequence[str] = TRANSPORT_ROWS,
    crash: bool = True,
    include_ben_or: bool = False,
    max_steps: Optional[int] = None,
) -> List[Table2Row]:
    """Measure every Table 2 row at one (n, f, d, δ) configuration.

    Rows are submitted as :class:`RunSpec` batches.
    """
    if f is None:
        f = (n - 1) // 2
    seeds = list(seeds)
    rows: List[Table2Row] = []
    names = list(transports) + (["ben-or"] if include_ben_or else [])
    for transport in names:
        specs = [
            RunSpec(
                kind="consensus", algorithm=transport, n=n, f=f, d=d,
                delta=delta, seed=seed, crashes=f if crash else None,
                max_steps=max_steps,
            )
            for seed in seeds
        ]
        records = execute_batch(specs)
        rate, time, messages, rounds = summarize_completed(
            records, ("time", "messages", "rounds"))
        safe = [record["metrics"]["agreement"]
                and record["metrics"]["validity"] for record in records]
        bound_t, bound_m = _bounds_for(transport, n, d, delta)
        label = ("CR-" + transport if transport in TRANSPORT_ROWS
                 and transport != "all-to-all" else
                 ("CR (all-to-all)" if transport == "all-to-all"
                  else "Ben-Or"))
        rows.append(
            Table2Row(
                protocol=label, n=n, f=f, d=d, delta=delta,
                time=time, messages=messages, rounds=rounds,
                completion_rate=rate,
                agreement_rate=sum(safe) / len(safe),
                bound_time=bound_t, bound_messages=bound_m,
            )
        )
    return rows


def format_table2(rows: Sequence[Table2Row]) -> str:
    return render_table(
        ["protocol", "n", "f", "d", "delta", "time", "messages", "rounds",
         "ok", "safe", "bound(T)", "bound(M)"],
        [
            [r.protocol, r.n, r.f, r.d, r.delta, r.time.mean,
             r.messages.mean, r.rounds.mean, r.completion_rate,
             r.agreement_rate, r.bound_time, r.bound_messages]
            for r in rows
        ],
        title="Table 2 — randomized consensus under an oblivious adversary",
    )
