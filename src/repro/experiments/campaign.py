"""Crash-safe campaigns: one job loop and graceful shutdown.

A *campaign* is any long multi-trial driver — a spec batch, a grid, a
population sweep, a Theorem 1 portfolio run.  The trial pool makes the
individual trials fault-tolerant; this module makes the campaign itself
survive process death:

* :func:`run_jobs` — the one execution loop behind
  :func:`repro.store.execute_batch`, which runs every spec campaign —
  grids, sweeps, Theorem 1 portfolios, ``repro batch``: key dedupe, the
  pool, the ok/cancelled/failed triage and the drain.  The campaign's
  artifact store is its only progress record: a key the store holds is
  done, so a campaign SIGKILLed mid-run resumes against its store alone
  and re-runs exactly the missing jobs, seed for seed.
* :class:`GracefulShutdown` — a SIGINT/SIGTERM drain handler: the first
  signal stops new submissions and lets in-flight trials finish (bounded
  by the driver's per-trial timeout and chunk size); the second signal
  hard-terminates.  Drivers surface the drain as
  :class:`CampaignDrained` and the CLI exits with
  :data:`DRAIN_EXIT_CODE` so wrappers can distinguish "interrupted but
  resumable" from failure.
"""

from __future__ import annotations

import json
import signal
import sys
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
)

from .pool import CANCELLED, OK, TrialOutcome, TrialPool

__all__ = [
    "CampaignDrained",
    "DRAIN_EXIT_CODE",
    "GracefulShutdown",
    "job_key",
    "run_jobs",
]

#: Process exit code for a campaign that drained cleanly after a
#: shutdown signal (EX_TEMPFAIL: re-run with ``--resume`` to finish).
DRAIN_EXIT_CODE = 75

#: A campaign with a shutdown hook polls it between chunks of this many
#: jobs (or ``processes``, if more).
DRAIN_CHUNK = 8


def job_key(payload: Any) -> str:
    """Canonical JSON identity of one job's parameters.

    Order- and representation-independent, so a job submitted before a
    crash and its re-submission after resume key identically.
    """
    return json.dumps(payload, sort_keys=True, default=str)


class CampaignDrained(RuntimeError):
    """A campaign stopped early on a shutdown request, its store synced.

    ``path`` is the campaign's store; ``completed`` and ``remaining``
    count the campaign's distinct jobs the store does and does not hold.
    Not an error in the usual sense — the store is consistent and
    re-running against it finishes the campaign — but the normal return
    contract (one result per job) cannot be met, so drivers raise
    instead of returning partial lists silently.
    """

    def __init__(self, path: Optional[str], completed: int,
                 remaining: int) -> None:
        self.path = path
        self.completed = completed
        self.remaining = remaining
        super().__init__(
            f"campaign drained after shutdown request: {completed} "
            f"job(s) stored, {remaining} remaining; resume from {path!r}"
        )


class GracefulShutdown:
    """SIGINT/SIGTERM drain handler for long campaigns.

    Used as a context manager around a campaign, and passed to drivers
    as their ``shutdown`` (it is callable, so it plugs directly into the
    pool's ``stop_check``).  First signal: set the drain flag — drivers
    stop submitting, wait (bounded) for in-flight trials, sync their
    stores, and raise :class:`CampaignDrained`.
    Second signal: raise ``KeyboardInterrupt`` from the handler — a hard
    stop that unwinds immediately (the ``TrialPool`` context manager
    terminates its workers on the way out).

    Outside the main thread (or under a harness that owns the signal
    disposition) installation fails silently and the instance degrades
    to an inert flag the owner may set by hand.
    """

    def __init__(self, signals: Sequence[int] = (signal.SIGINT,
                                                 signal.SIGTERM),
                 verbose: bool = True) -> None:
        self.signals = tuple(signals)
        self.verbose = verbose
        self.requested = False
        self.signal_count = 0
        self._previous: Dict[int, Any] = {}

    def __call__(self) -> bool:
        return self.requested

    def __bool__(self) -> bool:
        return self.requested

    def _handle(self, signum: int, frame: Any) -> None:
        self.signal_count += 1
        self.requested = True
        if self.signal_count >= 2:
            raise KeyboardInterrupt(
                f"second shutdown signal ({signum}); hard stop"
            )
        if self.verbose:
            print(
                "shutdown requested: draining in-flight trials and "
                "syncing the store (signal again to hard-stop)",
                file=sys.stderr,
            )

    def __enter__(self) -> "GracefulShutdown":
        for signum in self.signals:
            try:
                self._previous[signum] = signal.signal(signum, self._handle)
            except (ValueError, OSError):  # pragma: no cover - non-main
                pass
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for signum, previous in self._previous.items():
            try:
                signal.signal(signum, previous)
            except (ValueError, OSError):  # pragma: no cover - non-main
                pass
        self._previous.clear()


def run_jobs(
    fn: Callable[[Any], Any],
    jobs: Iterable[Any],
    *,
    keys: Optional[Sequence[str]] = None,
    processes: int = 1,
    trial_timeout: Optional[float] = None,
    retries: int = 0,
    shutdown: Optional[Callable[[], bool]] = None,
    store: Any = None,
    sink: Optional[Callable[[int, Any], Any]] = None,
) -> List[TrialOutcome]:
    """Run ``fn`` over ``jobs``; one :class:`TrialOutcome` per job.

    The one execution loop behind ``execute_batch``, and so behind every
    spec campaign: it builds the jobs, picks a ``sink`` and shapes the
    outcomes; everything else is here.

    * ``keys`` name the jobs (default :func:`job_key` of each job).
      Jobs sharing a key execute once and share the outcome.
    * ``store`` is the caller's result cache and progress record (an
      artifact store — anything answering ``key in store``).  A hit
      runs nothing and comes back as an ok outcome with no value and
      ``attempts == 0``; the caller reads the result from its store.
      Failed jobs are never stored, so the next run retries exactly
      them.
    * ``trial_timeout``/``retries`` select the fault-tolerant
      :meth:`~repro.experiments.pool.TrialPool.map_outcomes`: a job
      that hangs, raises or kills its worker yields a non-ok outcome
      instead of aborting the run.  Otherwise the first job exception
      propagates (fail-fast ``map``).
    * ``sink(index, value)`` receives every freshly executed ok value,
      in job order — ``execute_batch`` stores it there.
    * ``shutdown`` needs a ``store``.  Jobs then run in chunks of
      ``max(DRAIN_CHUNK, processes)``; ``shutdown`` truthy between
      chunks (or mid-chunk, via the pool's ``stop_check``) drains:
      in-flight jobs finish, ``store`` is synced and
      :class:`CampaignDrained` is raised.  Without ``shutdown`` the run
      is one pool call.

    ``processes < 1``, ``retries < 0`` and ``trial_timeout <= 0`` are a
    :class:`~repro.sim.errors.ConfigurationError` before any job runs.
    """
    from ..sim.errors import ConfigurationError

    for name, value, valid, rule in (
        ("processes", processes, processes >= 1, ">= 1"),
        ("retries", retries, retries >= 0, ">= 0"),
        ("trial_timeout", trial_timeout,
         trial_timeout is None or trial_timeout > 0, "> 0 seconds"),
    ):
        if not valid:
            raise ConfigurationError(f"{name} must be {rule}, got {value!r}")
    jobs = list(jobs)
    keys = ([job_key(job) for job in jobs] if keys is None else list(keys))
    if shutdown is not None and store is None:
        raise ValueError(
            "a shutdown hook needs a store to drain into: pass store= "
            "along with shutdown="
        )

    def drain() -> None:
        if hasattr(store, "sync"):
            store.sync()
        distinct = set(keys)
        completed = sum(1 for key in distinct if key in store)
        raise CampaignDrained(getattr(store, "path", None), completed,
                              len(distinct) - completed)

    by_key: Dict[str, TrialOutcome] = {}
    first: Dict[str, int] = {}  # key -> index of the job that runs it
    for index, key in enumerate(keys):
        if key in by_key or key in first:
            continue
        if store is not None and key in store:
            by_key[key] = TrialOutcome(index, OK, attempts=0)
        else:
            first[key] = index
    pending = list(first.values())

    tolerant = trial_timeout is not None or retries > 0
    chunk_size = (len(pending) if shutdown is None
                  else max(DRAIN_CHUNK, processes))
    if pending:
        with TrialPool(processes) as pool:
            for start in range(0, len(pending), chunk_size):
                if shutdown is not None and shutdown():
                    drain()
                chunk = pending[start:start + chunk_size]
                chunk_jobs = [jobs[index] for index in chunk]
                if tolerant:
                    outcomes = pool.map_outcomes(
                        fn, chunk_jobs, timeout=trial_timeout,
                        retries=retries, stop_check=shutdown,
                    )
                else:
                    outcomes = [
                        TrialOutcome(index, OK, value=value)
                        for index, value in zip(
                            chunk, pool.map(fn, chunk_jobs))
                    ]
                cancelled = False
                for index, outcome in zip(chunk, outcomes):
                    outcome.index = index
                    by_key[keys[index]] = outcome
                    if outcome.ok and sink is not None:
                        sink(index, outcome.value)
                    cancelled |= outcome.status == CANCELLED
                if cancelled:
                    drain()
    if shutdown is not None and shutdown():
        drain()
    return [by_key[key] for key in keys]
