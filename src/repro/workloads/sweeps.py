"""Parameter-sweep drivers: run a configuration grid, aggregate over seeds."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
)

from ..analysis.stats import Summary, summarize_completed
from ..spec.runspec import RunSpec


@dataclass
class SweepPoint:
    """Aggregated measurements for one (algorithm, n, f, d, delta) cell."""

    algorithm: str
    n: int
    f: int
    d: int
    delta: int
    seeds: int
    completion_rate: float
    time: Summary
    messages: Summary
    extras: Dict[str, Any]


def geometric_ns(start: int = 16, stop: int = 256, factor: int = 2
                 ) -> List[int]:
    """Geometric population sweep: start, start·factor, … ≤ stop."""
    ns = []
    n = start
    while n <= stop:
        ns.append(n)
        n *= factor
    return ns


def sweep_specs(
    algorithm: str,
    ns: Sequence[int],
    f_of_n: Callable[[int], int],
    d: int = 1,
    delta: int = 1,
    seeds: Iterable[int] = range(3),
    crash: bool = False,
    params_of_n: Optional[Callable[[int], Any]] = None,
    max_steps: Optional[int] = None,
    engine: str = "auto",
    topology: Any = None,
) -> List[RunSpec]:
    """The (n × seed) specs of a population sweep of ``algorithm``, n
    by n; run them with :func:`repro.store.execute_batch` (any campaign
    option it takes applies) and reduce with :func:`sweep_points`.

    ``crash`` crashes the full failure budget ``f_of_n(n)``.
    ``params_of_n`` gives the algorithm's knobs at each n — a mapping or
    a :mod:`repro.core.params` object, either way part of the spec.

    ``engine`` selects the execution strategy for every run;
    ``"batch"`` lets a plain sweep's eligible same-cell seeds ride one
    vectorized engine tick, as in any other ``execute_batch`` call.

    ``topology`` restricts every run to a communication graph (a family
    name or ``{"name": ..., **knobs}``); ``None``/``"complete"`` is the
    paper's model.  Non-complete topologies are batch-ineligible, so a
    ``"batch"`` sweep over them transparently runs per-trial.
    """
    seeds = list(seeds)
    specs = []
    for n in ns:
        f = f_of_n(n)
        params = params_of_n(n) if params_of_n else None
        specs += [
            RunSpec(
                kind="gossip", algorithm=algorithm, n=n, f=f, d=d,
                delta=delta, seed=seed, params=params,
                crashes=f if crash else None, max_steps=max_steps,
                engine=engine, topology=topology,
            )
            for seed in seeds
        ]
    return specs


def sweep_points(specs: Sequence[RunSpec],
                 records: Sequence[Mapping[str, Any]]) -> List[SweepPoint]:
    """One :class:`SweepPoint` per n of a :func:`sweep_specs` list, from
    its records in spec order: consecutive specs of one n are its seeds.
    A run that failed or timed out (a
    :func:`~repro.store.failed_record`) counts as a not-completed trial
    in its point's ``completion_rate``."""
    points = []
    for n, group in itertools.groupby(zip(specs, records),
                                      key=lambda pair: pair[0].n):
        group = list(group)
        spec = group[0][0]
        rate, time, messages = summarize_completed(
            record for _, record in group)
        points.append(
            SweepPoint(
                algorithm=spec.algorithm, n=n, f=spec.f, d=spec.d,
                delta=spec.delta, seeds=len(group), completion_rate=rate,
                time=time, messages=messages, extras={},
            )
        )
    return points


def sweep_gossip(*args: Any, **kwargs: Any) -> List[SweepPoint]:
    """Run ``algorithm`` across a population sweep; aggregate per n.

    Takes :func:`sweep_specs`'s arguments and runs its specs in one
    store-less, sequential :func:`repro.store.execute_batch` call; a
    campaign that wants workers, timeouts, a store or a drain hook
    passes them to ``execute_batch`` itself and reduces with
    :func:`sweep_points`.
    """
    # Lazy: a worker that only builds sweep specs does not load the store.
    from ..store import execute_batch

    specs = sweep_specs(*args, **kwargs)
    return sweep_points(specs, execute_batch(specs))


def quarter(n: int) -> int:
    return n // 4


def near_half(n: int) -> int:
    return (n - 1) // 2


def three_quarters(n: int) -> int:
    return 3 * n // 4
