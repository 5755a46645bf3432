"""A reusable worker pool for independent seeded trials.

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

``map`` is fail-fast, which is the right contract for deterministic,
step-bounded, re-runnable trials: the first job exception propagates,
and a worker process that dies (OOM-kill, segfault, ``os._exit``) makes
the call raise a :class:`~repro.sim.errors.SimulationError` naming it
instead of waiting forever for the results it took with it.  A campaign
that must survive failing, slow or killed jobs runs under
``repro fleet run``, whose retries and lease re-issue do that.

Jobs submitted to ``map`` must be module-level callables with picklable
arguments; results always come back in submission order, so callers can
rely on positional correspondence regardless of worker count.
"""

from __future__ import annotations

from typing import Any, Callable, List, Sequence

__all__ = ["TrialPool"]


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

    #: Seconds between the dead-worker checks of a parallel :meth:`map`.
    poll_interval = 0.05

    def __init__(self, processes: int = 1) -> None:
        if processes < 1:
            raise ValueError(f"processes must be >= 1, got {processes}")
        self.processes = processes
        self._pool = None
        self._workers: List[Any] = []

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
            from multiprocessing import Pool, active_children

            before = set(active_children())
            self._pool = Pool(self.processes)
            # The workers the pool just started: a later death among
            # them is a lost job (the pool's replacement never gets it).
            # The snapshot assumes no other thread starts a process
            # while the pool starts.  concurrent.futures'
            # BrokenProcessPool would need no snapshot, but its message
            # names neither the worker's pid nor its exit code.
            self._workers = [process for process in active_children()
                             if process not in before]
        return self._pool

    def _chunk(self, n_jobs: int) -> int:
        # A few chunks per worker balances scheduling slack against IPC
        # overhead for the short, uniform jobs sweeps produce.
        return max(1, n_jobs // (self.processes * 4))

    # -- execution ------------------------------------------------------- #

    def map(self, fn: Callable[[Any], Any], jobs: Sequence[Any]
            ) -> List[Any]:
        """Apply ``fn`` to every job; results in submission order.

        Fail-fast: the first job exception propagates, and a worker that
        dies mid-batch makes the call raise a
        :class:`~repro.sim.errors.SimulationError` naming it (the pool is
        torn down first; the next ``map`` starts a fresh one).  ``fn``
        must be a module-level callable and each job picklable when
        ``processes > 1``; with one process this is exactly a list
        comprehension.
        """
        jobs = list(jobs)
        if self.processes == 1 or len(jobs) <= 1:
            return [fn(job) for job in jobs]
        result = self._ensure_pool().map_async(
            fn, jobs, chunksize=self._chunk(len(jobs)))
        while not result.ready():
            result.wait(self.poll_interval)
            dead = [process for process in self._workers
                    if process.exitcode is not None]
            if dead and not result.ready():
                self.terminate()
                from ..sim.errors import SimulationError

                raise SimulationError(
                    "trial pool worker "
                    + ", ".join(f"pid {process.pid} (exit code "
                                f"{process.exitcode})" for process in dead)
                    + f" died during a batch of {len(jobs)} job(s), so its "
                    f"jobs' results are lost; the batch is abandoned (run "
                    f"the campaign under 'repro fleet run' to retry jobs "
                    f"that kill their worker)"
                )
        return result.get()
