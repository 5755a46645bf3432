"""Crash-safe campaigns: one job loop and graceful shutdown.

A *campaign* is any long multi-trial driver — a spec batch, a grid, a
population sweep, a Theorem 1 portfolio run.  The trial pool runs the
individual trials fail-fast; this module makes the campaign itself
survive process death:

* :func:`run_jobs` — the one execution loop behind
  :func:`repro.store.execute_batch`, which runs every spec campaign —
  grids, sweeps, Theorem 1 portfolios, ``repro batch``: key dedupe, the
  pool and the drain.  The campaign's artifact store is its only
  progress record: a key the store holds is done, so a campaign
  SIGKILLed mid-run (or stopped by a failing job) resumes against its
  store alone and re-runs exactly the missing jobs, seed for seed.
* :class:`GracefulShutdown` — a SIGINT/SIGTERM drain handler: the first
  signal stops new submissions and lets the chunk in flight finish; the
  second signal hard-terminates.  Drivers surface the drain as
  :class:`CampaignDrained` and the CLI exits with
  :data:`DRAIN_EXIT_CODE` so wrappers can distinguish "interrupted but
  resumable" from failure.

Retrying failing jobs and re-issuing the jobs of a killed worker is the
fleet's work (``repro fleet run``), not this module's."""

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

from .pool import TrialPool

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
    as their ``shutdown`` (it is callable: :func:`run_jobs` polls it
    between chunks).  First signal: set the drain flag — drivers stop
    submitting, let the chunk in flight finish, sync their stores, and
    raise :class:`CampaignDrained`.
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
    shutdown: Optional[Callable[[], bool]] = None,
    store: Any = None,
    sink: Optional[Callable[[int, Any], Any]] = None,
) -> List[Any]:
    """Run ``fn`` over ``jobs``; one value per job, in job order.

    The one execution loop behind ``execute_batch``, and so behind every
    spec campaign: it builds the jobs, picks a ``sink`` and shapes the
    values; everything else is here.

    * ``keys`` name the jobs (default :func:`job_key` of each job).
      Jobs sharing a key execute once and share the value.
    * ``store`` is the caller's result cache and progress record (an
      artifact store — anything answering ``key in store``).  A hit
      runs nothing and its value is ``None``; the caller reads the
      result from its store.
    * ``sink(index, value)`` receives every freshly executed value, in
      job order — ``execute_batch`` stores it there.
    * Fail-fast: the first job exception propagates, and so does the
      death of a worker process (see
      :meth:`~repro.experiments.pool.TrialPool.map`).  A campaign that
      must survive failing, slow or killed jobs runs under
      ``repro fleet run``.
    * ``shutdown`` needs a ``store``.  Jobs then run in chunks of
      ``max(DRAIN_CHUNK, processes)``; ``shutdown`` truthy between
      chunks drains: the chunk in flight finishes, ``store`` is synced
      and :class:`CampaignDrained` is raised.  The chunks finished
      before a failure are in ``store`` too, so a re-run executes only
      the rest.  Without ``shutdown`` the run is one pool call.

    ``processes < 1`` is a :class:`~repro.sim.errors.ConfigurationError`
    before any job runs.
    """
    from ..sim.errors import ConfigurationError

    if processes < 1:
        raise ConfigurationError(
            f"processes must be >= 1, got {processes!r}")
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

    values: Dict[str, Any] = {}
    first: Dict[str, int] = {}  # key -> index of the job that runs it
    for index, key in enumerate(keys):
        if key in values or key in first:
            continue
        if store is not None and key in store:
            values[key] = None
        else:
            first[key] = index
    pending = list(first.values())

    chunk_size = (len(pending) if shutdown is None
                  else max(DRAIN_CHUNK, processes))
    if pending:
        with TrialPool(processes) as pool:
            for start in range(0, len(pending), chunk_size):
                if shutdown is not None and shutdown():
                    drain()
                chunk = pending[start:start + chunk_size]
                chunk_values = pool.map(fn, [jobs[index] for index in chunk])
                for index, value in zip(chunk, chunk_values):
                    values[keys[index]] = value
                    if sink is not None:
                        sink(index, value)
    if shutdown is not None and shutdown():
        drain()
    return [values[key] for key in keys]
