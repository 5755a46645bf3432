"""Parameter-sweep drivers: run a configuration grid, aggregate over seeds."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..analysis.stats import Summary, summarize
from ..sim.errors import ConfigurationError
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


def _sweep_job(job, observers=()):
    """One (n, seed) gossip run, reduced to the aggregated fields.

    A job is ``(spec.to_dict(), params_override)``: serializable knobs
    live in the spec; an algorithm parameter *object* (e.g.
    :class:`SearsParams`) cannot, so it rides as an override.
    Module-level so parallel sweeps can ship it to worker processes.
    """
    spec_dict, params = job
    run = execute(RunSpec.from_dict(spec_dict), params=params,
                  observers=observers)
    return run.completed, run.completion_time, run.messages


def _refuse_tuple_jobs(manifest) -> None:
    """Refuse a sweep manifest whose jobs are the positional tuples
    older builds wrote: their keys can never match a spec job's, so a
    resume would re-run everything and leave the tuple keys missing."""
    for payload in manifest.submitted.values():
        if not (isinstance(payload, (list, tuple)) and len(payload) == 2
                and isinstance(payload[0], dict)):
            raise ConfigurationError(
                f"sweep manifest {manifest.path!r} was written in the "
                f"older positional-tuple job format, which this build "
                f"cannot resume; finish it with the build that wrote "
                f"it or start a fresh manifest"
            )


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

    ``trial_timeout``/``retries`` route the runs through
    :meth:`~repro.experiments.pool.TrialPool.map_outcomes`: a run that
    hangs, raises, or kills its worker counts as a not-completed trial
    in its cell's ``completion_rate`` instead of aborting the sweep.

    ``engine`` selects the execution strategy for every run.
    ``"batch"`` additionally groups a plain sweep's eligible (cell,
    seed) runs through the vectorized batched-trial engine
    (:func:`repro.store.batch.execute_batch`), advancing many seeds of
    one cell per engine tick; profiled, fault-tolerant, and
    checkpointed sweeps keep per-trial execution, where ``execute``
    still routes each eligible spec through the batch engine as a
    batch of one.

    ``manifest`` (path or
    :class:`~repro.experiments.campaign.CampaignManifest`) checkpoints
    the sweep: per-run results are persisted (atomically, at least
    every ``checkpoint_every`` completions) keyed by the run's
    parameters, so a sweep killed mid-way resumes seed-for-seed,
    re-executing only the missing (n, seed) runs.  ``shutdown`` drains
    the sweep on a graceful-stop request and raises
    :class:`~repro.experiments.campaign.CampaignDrained`.

    ``topology`` restricts every run to a communication graph (a family
    name or ``{"name": ..., **knobs}``); ``None``/``"complete"`` is the
    paper's model.  Non-complete topologies are batch-ineligible, so a
    ``"batch"`` sweep over them transparently runs per-trial.
    """
    # Lazy import: repro.experiments.scaling imports this module, so a
    # top-level import of the campaign layer would be circular.
    from ..experiments.campaign import CampaignManifest, run_jobs

    seeds = list(seeds)
    specs, overrides = [], []
    for n in ns:
        f = f_of_n(n)
        params = params_of_n(n) if params_of_n else None
        in_spec = params is None or isinstance(params, dict)
        for seed in seeds:
            specs.append(RunSpec(
                kind="gossip", algorithm=algorithm, n=n, f=f, d=d,
                delta=delta, seed=seed, params=params if in_spec else None,
                crashes=f if crash else None, max_steps=max_steps,
                engine=engine, topology=topology,
            ))
            overrides.append(None if in_spec else params)

    plain = (profile is None and manifest is None and shutdown is None
             and trial_timeout is None and not retries)
    if plain and engine == "batch" and all(
            override is None for override in overrides):
        # Vectorized grouping: same-cell seeds ride one batched engine
        # tick; ineligible cells fall back per-trial inside the batch.
        # (Params *objects* cannot ride a spec, so such sweeps keep the
        # per-trial jobs below.)
        from ..store.batch import execute_batch

        outcomes = [
            (record["metrics"]["completed"], record["metrics"]["time"],
             record["metrics"]["messages"])
            for record in execute_batch(specs, processes=processes)
        ]
    else:
        fn = _sweep_job
        if profile is not None:
            # The profiler must see every step, so it cannot cross a
            # process boundary: profiled sweeps run inline.
            fn, processes = partial(_sweep_job, observers=(profile,)), 1
        if manifest is not None:
            manifest = CampaignManifest.ensure(
                manifest,
                meta={
                    "driver": "sweep",
                    "algorithm": algorithm,
                    "ns": list(ns),
                    "rng": {"seeds": seeds},
                },
                checkpoint_every=checkpoint_every,
            )
            _refuse_tuple_jobs(manifest)
        # A failed/timed-out trial aggregates as a not-completed run.
        outcomes = [
            outcome.value if outcome.ok else (False, None, None)
            for outcome in run_jobs(
                fn,
                [(spec.to_dict(), override)
                 for spec, override in zip(specs, overrides)],
                processes=processes, trial_timeout=trial_timeout,
                retries=retries, manifest=manifest,
                checkpoint_every=checkpoint_every, shutdown=shutdown,
                decode=tuple,
            )
        ]

    points = []
    for index, n in enumerate(ns):
        f = f_of_n(n)
        per_n = outcomes[index * len(seeds):(index + 1) * len(seeds)]
        times, messages, completions = [], [], []
        for completed, completion_time, message_count in per_n:
            completions.append(completed)
            if completed:
                times.append(float(completion_time))
                messages.append(float(message_count))
        points.append(
            SweepPoint(
                algorithm=algorithm, n=n, f=f, d=d, delta=delta,
                seeds=len(seeds),
                completion_rate=sum(completions) / len(completions),
                time=summarize(times or [float("nan")]),
                messages=summarize(messages or [float("nan")]),
                extras={},
            )
        )
    return points


def quarter(n: int) -> int:
    return n // 4


def near_half(n: int) -> int:
    return (n - 1) // 2


def three_quarters(n: int) -> int:
    return 3 * n // 4
