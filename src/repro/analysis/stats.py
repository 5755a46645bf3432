"""Small statistics helpers for aggregating repeated seeded trials.

The paper's guarantees are "with high probability"; the reproduction runs
each configuration across several seeds and reports means with normal-
approximation confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence, Tuple


@dataclass(frozen=True)
class Summary:
    """Mean, spread, and a ~95% confidence half-width of a sample."""

    count: int
    mean: float
    stdev: float
    minimum: float
    maximum: float
    ci95: float


def summarize(values: Sequence[float]) -> Summary:
    """Summarize a sample; stdev/ci are 0 for singleton samples."""
    if not values:
        raise ValueError("cannot summarize an empty sample")
    n = len(values)
    mean = sum(values) / n
    if n > 1:
        variance = sum((v - mean) ** 2 for v in values) / (n - 1)
        stdev = math.sqrt(variance)
        ci95 = 1.96 * stdev / math.sqrt(n)
    else:
        stdev = ci95 = 0.0
    return Summary(
        count=n, mean=mean, stdev=stdev,
        minimum=min(values), maximum=max(values), ci95=ci95,
    )


def summarize_completed(
    records: Iterable[Mapping[str, Any]],
    metrics: Sequence[str] = ("time", "messages"),
) -> Tuple[Any, ...]:
    """Reduce one cell's store records (one per seed) to ``(completion
    rate, Summary of metrics[0], Summary of metrics[1], ...)``.

    Rates count every record; the summaries cover the completed trials
    only, and are NaN for a cell where nothing completed.
    """
    rows = [record["metrics"] for record in records]
    done = [row for row in rows if row["completed"]]
    return (len(done) / len(rows), *(
        summarize([float(row[metric]) for row in done] or [float("nan")])
        for metric in metrics
    ))


def success_rate(outcomes: Sequence[bool]) -> float:
    if not outcomes:
        raise ValueError("cannot take the rate of an empty sample")
    return sum(bool(o) for o in outcomes) / len(outcomes)


def wilson_interval(successes: int, trials: int, z: float = 1.96):
    """Wilson score interval for a Bernoulli success probability."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    phat = successes / trials
    denom = 1 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (
        z
        * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials ** 2))
        / denom
    )
    return max(0.0, center - half), min(1.0, center + half)
