"""Parameter-sweep drivers: run a configuration grid, aggregate over seeds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..analysis.stats import Summary, summarize_completed
from ..sim.events import StepProfiler
from ..spec.builder import execute
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


def sweep_gossip(
    algorithm: str,
    ns: Sequence[int],
    f_of_n: Callable[[int], int],
    d: int = 1,
    delta: int = 1,
    seeds: Iterable[int] = range(3),
    crash: bool = False,
    params_of_n: Optional[Callable[[int], Any]] = None,
    max_steps: Optional[int] = None,
    processes: int = 1,
    profile: Optional[StepProfiler] = None,
    trial_timeout: Optional[float] = None,
    retries: int = 0,
    manifest: Optional[Any] = None,
    checkpoint_every: int = 8,
    shutdown: Optional[Callable[[], bool]] = None,
    engine: str = "auto",
    topology: Any = None,
) -> List[SweepPoint]:
    """Run ``algorithm`` across a population sweep; aggregate per n.

    ``processes > 1`` distributes the (n × seed) runs over a
    :class:`~repro.experiments.pool.TrialPool` (each run is a
    deterministic function of its parameters, so aggregates are identical
    to the sequential sweep). ``profile`` attaches a
    :class:`~repro.sim.events.StepProfiler` to every run, accumulating a
    per-phase wall-time breakdown; profiled sweeps run sequentially so
    the observer sees every step.

    ``trial_timeout``/``retries``, ``manifest``/``checkpoint_every`` and
    ``shutdown`` are :func:`repro.store.execute_batch`'s, which runs the
    (n × seed) specs: a run that hangs, raises, or kills its worker
    counts as a not-completed trial in its cell's ``completion_rate``
    instead of aborting the sweep; a checkpointed sweep killed mid-way
    resumes seed-for-seed, re-executing only the missing runs; a
    graceful-stop request drains it and raises
    :class:`~repro.experiments.campaign.CampaignDrained`.

    ``engine`` selects the execution strategy for every run;
    ``"batch"`` lets a plain sweep's eligible same-cell seeds ride one
    vectorized engine tick, as in any other ``execute_batch`` call.

    ``params_of_n`` gives the algorithm's knobs at each n — a mapping or
    a :mod:`repro.core.params` object, either way part of the spec.

    ``topology`` restricts every run to a communication graph (a family
    name or ``{"name": ..., **knobs}``); ``None``/``"complete"`` is the
    paper's model.  Non-complete topologies are batch-ineligible, so a
    ``"batch"`` sweep over them transparently runs per-trial.
    """
    # Lazy import: resolving a scenario name imports this package, and a
    # worker that only does that should not load the store layer.
    from ..store import execute_batch, make_record, metrics_of

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
    if profile is not None:
        # The profiler must see every step, so it cannot cross a
        # process boundary: profiled sweeps run inline.
        records = [
            make_record(spec, metrics_of(execute(spec, observers=(profile,))))
            for spec in specs
        ]
    else:
        records = execute_batch(
            specs, processes=processes, trial_timeout=trial_timeout,
            retries=retries, manifest=manifest,
            checkpoint_every=checkpoint_every, shutdown=shutdown,
        )

    points = []
    for index, n in enumerate(ns):
        rate, time, messages = summarize_completed(
            records[index * len(seeds):(index + 1) * len(seeds)])
        points.append(
            SweepPoint(
                algorithm=algorithm, n=n, f=f_of_n(n), d=d, delta=delta,
                seeds=len(seeds), completion_rate=rate, time=time,
                messages=messages, extras={},
            )
        )
    return points


def quarter(n: int) -> int:
    return n // 4


def near_half(n: int) -> int:
    return (n - 1) // 2


def three_quarters(n: int) -> int:
    return 3 * n // 4
