"""A reusable, fault-tolerant worker pool for independent seeded trials.

Every sweep-shaped driver in the repository — the spec campaigns of
:func:`repro.store.execute_batch` (grid cells, sweep points, Theorem 1
portfolios, ``repro batch``) — has the same shape: a list of independent
jobs whose results are combined in job order.
:class:`TrialPool` is the one implementation of that shape:

* ``processes=1`` (the default) runs jobs inline, with zero setup cost and
  full determinism — results are bit-identical to a plain loop;
* ``processes>1`` keeps one ``multiprocessing.Pool`` alive across ``map``
  calls and submits jobs in chunks, so a driver issuing many small batches
  (a grid re-run, a multi-point sweep) pays the worker startup cost once.

``map`` is the fail-fast path: the first job exception propagates and the
batch is lost, which is the right contract for deterministic re-runnable
trials on a healthy machine.  :meth:`map_outcomes` is the fault-tolerant
path: each job gets a per-job wall-clock timeout (async polling, so one
hung trial cannot stall the batch), bounded retries with capped backoff
for transient failures, and worker-loss recovery (a died worker's pending
jobs are resubmitted to a respawned pool without burning a retry).  It
returns one :class:`TrialOutcome` per job — ``ok`` / ``failed`` /
``timed-out`` with the attempt count and duration — so grid and sweep
drivers degrade to partial results instead of crashing.

Jobs submitted to ``map``/``map_outcomes`` must be module-level callables
with picklable arguments; results always come back in submission order, so
callers can rely on positional correspondence regardless of worker count.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

__all__ = [
    "TrialOutcome",
    "TrialPool",
    "failure_record",
]

#: TrialOutcome.status values.
OK = "ok"
FAILED = "failed"
TIMED_OUT = "timed-out"
CANCELLED = "cancelled"


@dataclass
class TrialOutcome:
    """Result record for one job of a fault-tolerant batch.

    ``value`` is the job's return value when ``status == "ok"`` and
    ``None`` otherwise; ``error`` is the stringified terminal exception
    for failed jobs (``exception`` additionally holds the exception
    object when it survived the process boundary).  ``attempts`` counts
    executions actually started, and ``duration`` is the wall-clock
    seconds from first submission to resolution.
    """

    index: int
    status: str
    value: Any = None
    error: Optional[str] = None
    attempts: int = 1
    duration: float = 0.0
    exception: Optional[BaseException] = None

    @property
    def ok(self) -> bool:
        return self.status == OK


def failure_record(outcome: TrialOutcome) -> Dict[str, Any]:
    """The row a non-ok outcome contributes in place of its job's result.

    Mirrors the recorder/metrics contract's ``completed``/``reason``
    fields so downstream aggregation (which skips ``None`` values)
    degrades gracefully, and carries the error text and attempt count
    for the report.  Failure rows are **never written to a store**, so
    a later run of the same campaign retries exactly the failed jobs.
    """
    return {
        "completed": False,
        "reason": ("trial-timeout" if outcome.status == TIMED_OUT
                   else "trial-failed"),
        "error": outcome.error,
        "attempts": outcome.attempts,
    }


class TrialPool:
    """Runs batches of independent jobs, optionally across processes.

    The pool is lazy: no worker processes exist until the first parallel
    ``map``. It is reusable: successive ``map`` calls share the same
    workers. Use as a context manager (or call :meth:`close`) to reclaim
    the workers; a sequential pool has nothing to reclaim.  A ``with``
    block that exits cleanly drains in-flight work (``close``/``join``);
    an exceptional exit tears the workers down immediately
    (:meth:`terminate`), since their results can no longer be consumed.
    """

    #: Seconds between result polls in :meth:`map_outcomes`.
    poll_interval = 0.02

    def __init__(self, processes: int = 1) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self.processes = processes
        self._pool = None
        self._warned_no_introspection = False

    # -- lifecycle ------------------------------------------------------- #

    def __enter__(self) -> "TrialPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.terminate()
        else:
            self.close()

    def close(self) -> None:
        """Shut the workers down cleanly, letting in-flight jobs finish.

        This is the normal-path shutdown: ``terminate()`` here would race
        workers that are mid-result and discard their output.  Use
        :meth:`terminate` when results are unwanted or workers may hang.
        """
        if self._pool is not None:
            self._pool.close()
            self._pool.join()
            self._pool = None

    def terminate(self) -> None:
        """Kill the worker processes without draining in-flight jobs."""
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def _ensure_pool(self):
        if self._pool is None:
            import multiprocessing

            self._pool = multiprocessing.Pool(self.processes)
        return self._pool

    def _worker_pids(self) -> frozenset:
        """The live workers' pids (empty when no pool, so worker-loss
        recovery simply never triggers).

        Reads ``multiprocessing.Pool``'s private ``_pool`` worker list.
        Only the two shapes that attribute can legitimately take are
        tolerated — no pool yet / already closed (``None``) and a CPython
        version dropping the private attribute (``AttributeError``, with
        a one-time warning since worker-loss recovery silently degrades).
        Anything else propagates: a broad catch here masked real bugs as
        "recovery never fires"."""
        if self._pool is None:
            return frozenset()
        try:
            workers = self._pool._pool
        except AttributeError:
            if not self._warned_no_introspection:
                self._warned_no_introspection = True
                logging.getLogger(__name__).warning(
                    "multiprocessing.Pool no longer exposes its worker "
                    "list; worker-loss recovery is disabled"
                )
            return frozenset()
        return frozenset(p.pid for p in workers)

    def _chunk(self, n_jobs: int) -> int:
        # A few chunks per worker balances scheduling slack against IPC
        # overhead for the short, uniform jobs sweeps produce.
        return max(1, n_jobs // (self.processes * 4))

    # -- execution ------------------------------------------------------- #

    def map(self, fn: Callable[[Any], Any], jobs: Sequence[Any]
            ) -> List[Any]:
        """Apply ``fn`` to every job; results in submission order.

        Fail-fast: the first job exception propagates.  ``fn`` must be a
        module-level callable and each job picklable when
        ``processes > 1``; with one process this is exactly a list
        comprehension.
        """
        jobs = list(jobs)
        if self.processes == 1 or len(jobs) <= 1:
            return [fn(job) for job in jobs]
        pool = self._ensure_pool()
        return pool.map(fn, jobs, chunksize=self._chunk(len(jobs)))

    def map_outcomes(
        self,
        fn: Callable[[Any], Any],
        jobs: Sequence[Any],
        timeout: Optional[float] = None,
        retries: int = 0,
        backoff: float = 0.05,
        max_backoff: float = 2.0,
        stop_check: Optional[Callable[[], bool]] = None,
    ) -> List[TrialOutcome]:
        """Fault-tolerant map: one :class:`TrialOutcome` per job, in order.

        - ``timeout``: per-job wall-clock seconds per attempt.  A job
          still running past it is recorded ``timed-out``; since its
          worker cannot be preempted, the pool is recycled (terminate +
          respawn) once the batch's live jobs have drained, so hung
          workers never leak into the next batch.
        - ``retries``: extra attempts for failed *and* timed-out jobs,
          with exponential backoff capped at ``max_backoff`` seconds.
        - worker loss: if a worker process dies (OOM-kill, segfault,
          ``os._exit``), its in-flight jobs would never resolve; the pool
          is recycled and exactly the unresolved jobs are resubmitted,
          without consuming one of their retries.
        - ``stop_check``: polled each scheduling round; once truthy the
          batch *drains* — no new submissions, in-flight jobs finish,
          and every unstarted job resolves as ``"cancelled"``.  This is
          how graceful shutdown bounds its wait: the drain cost is at
          most one in-flight job per worker (times the per-job
          ``timeout``, when one is set).

        With ``processes == 1`` jobs run inline: exceptions, retries and
        ``stop_check`` behave identically, but timeouts are not enforced
        (a same-process job cannot be preempted) — drivers that need
        hang protection must run with ``processes >= 2``.
        """
        jobs = list(jobs)
        if self.processes == 1:
            return self._map_outcomes_inline(fn, jobs, retries, backoff,
                                             max_backoff, stop_check)
        from collections import deque

        outcomes: List[Optional[TrialOutcome]] = [None] * len(jobs)
        attempts = {index: 0 for index in range(len(jobs))}
        losses = {index: 0 for index in range(len(jobs))}
        ready_at = {index: 0.0 for index in range(len(jobs))}
        first_submit: Dict[int, float] = {}
        # Free resubmits tolerated per job before a repeatedly worker-
        # killing job is declared failed rather than resubmitted forever.
        loss_cap = max(2, retries + 1)
        pending = deque(range(len(jobs)))
        #: index -> (AsyncResult, monotonic submit time). At most one job
        #: per healthy worker is in flight, so a job's clock starts when a
        #: worker can actually pick it up — queue time never counts
        #: against its timeout.
        active: Dict[int, Any] = {}
        wedged = 0  # workers stuck on an abandoned (timed-out) job
        recycle_when_drained = False
        known_pids = None  # worker-pid baseline; survives loop iterations

        def resolve_failure(index: int, status: str,
                            exc: Optional[BaseException]) -> None:
            if attempts[index] <= retries:
                ready_at[index] = time.monotonic() + min(
                    max_backoff, backoff * (2 ** (attempts[index] - 1))
                )
                pending.append(index)
                return
            outcomes[index] = TrialOutcome(
                index=index, status=status,
                error=(f"{type(exc).__name__}: {exc}" if exc is not None
                       else "job exceeded its wall-clock timeout"),
                attempts=attempts[index],
                duration=time.monotonic() - first_submit[index],
                exception=exc,
            )

        while pending or active:
            if (pending and stop_check is not None and stop_check()):
                # Drain: cancel everything not yet started; in-flight
                # jobs keep running below until they resolve.
                for index in pending:
                    outcomes[index] = TrialOutcome(
                        index=index, status=CANCELLED,
                        error="cancelled by shutdown request",
                        attempts=attempts[index],
                        duration=(time.monotonic() - first_submit[index]
                                  if index in first_submit else 0.0),
                    )
                pending.clear()
                if not active:
                    break
            pool = self._ensure_pool()
            if known_pids is None:
                known_pids = self._worker_pids()
            now = time.monotonic()
            capacity = self.processes - wedged - len(active)
            deferred = []
            while pending and capacity > 0:
                index = pending.popleft()
                if ready_at[index] > now:
                    deferred.append(index)
                    continue
                attempts[index] += 1
                first_submit.setdefault(index, now)
                active[index] = (pool.apply_async(fn, (jobs[index],)), now)
                capacity -= 1
            pending.extend(deferred)

            progressed = False
            for index in sorted(active):
                result, started = active[index]
                if result.ready():
                    del active[index]
                    progressed = True
                    try:
                        value = result.get()
                    except Exception as exc:
                        # Broad by contract: any job exception becomes a
                        # FAILED outcome carrying the error, never a lost
                        # batch.
                        resolve_failure(index, FAILED, exc)
                    else:
                        outcomes[index] = TrialOutcome(
                            index=index, status=OK, value=value,
                            attempts=attempts[index],
                            duration=time.monotonic()
                            - first_submit[index],
                        )
                elif (timeout is not None
                      and time.monotonic() - started > timeout):
                    # The worker cannot be preempted; abandon the job,
                    # count its worker as wedged, and recycle the pool
                    # once nothing live is left on it.
                    del active[index]
                    progressed = True
                    wedged += 1
                    recycle_when_drained = True
                    resolve_failure(index, TIMED_OUT, None)

            if active and self._worker_pids() != known_pids:
                # A worker died (the pool respawns replacements); any job
                # it was running will never resolve. Resubmit everything
                # in flight on a fresh pool — without burning a retry,
                # unless a job keeps killing its workers.
                progressed = True
                for index in sorted(active):
                    losses[index] += 1
                    if losses[index] > loss_cap:
                        outcomes[index] = TrialOutcome(
                            index=index, status=FAILED,
                            error=f"worker process died {losses[index]} "
                                  "times while running this job",
                            attempts=attempts[index],
                            duration=time.monotonic()
                            - first_submit[index],
                        )
                    else:
                        attempts[index] -= 1
                        pending.append(index)
                active.clear()
                self.terminate()
                wedged = 0
                recycle_when_drained = False
                known_pids = None
            elif not active and recycle_when_drained:
                # Hung workers are still burning the abandoned jobs;
                # replace the whole pool before the next submissions.
                self.terminate()
                wedged = 0
                recycle_when_drained = False
                known_pids = None

            if (pending or active) and not progressed:
                time.sleep(self.poll_interval)
        return list(outcomes)

    def _map_outcomes_inline(self, fn, jobs, retries, backoff,
                             max_backoff,
                             stop_check=None) -> List[TrialOutcome]:
        outcomes = []
        for index, job in enumerate(jobs):
            if stop_check is not None and stop_check():
                outcomes.append(TrialOutcome(
                    index=index, status=CANCELLED,
                    error="cancelled by shutdown request",
                    attempts=0,
                ))
                continue
            start = time.monotonic()
            attempt = 0
            while True:
                attempt += 1
                try:
                    value = fn(job)
                except Exception as exc:
                    if attempt <= retries:
                        self._sleep_backoff(attempt, backoff, max_backoff)
                        continue
                    outcomes.append(TrialOutcome(
                        index=index, status=FAILED,
                        error=f"{type(exc).__name__}: {exc}",
                        attempts=attempt,
                        duration=time.monotonic() - start,
                        exception=exc,
                    ))
                else:
                    outcomes.append(TrialOutcome(
                        index=index, status=OK, value=value,
                        attempts=attempt,
                        duration=time.monotonic() - start,
                    ))
                break
        return outcomes

    @staticmethod
    def _sleep_backoff(attempt: int, backoff: float,
                       max_backoff: float) -> None:
        if backoff > 0:
            time.sleep(min(max_backoff, backoff * (2 ** (attempt - 1))))
