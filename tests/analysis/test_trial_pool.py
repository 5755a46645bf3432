"""TrialPool: ordering, parallel/sequential equivalence, and a dead
worker raising instead of hanging."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

import repro
from repro.experiments.pool import TrialPool

from ..conftest import ROOT


# Jobs ship to worker processes, so they are module-level functions.

def _square(x):
    return x * x


def kill_worker_if_job(arg):
    """``(value, should_die)`` — kill the worker process outright."""
    value, should_die = arg
    if should_die:
        os._exit(17)
    return value


def _run_cell_like(args):
    name, value = args
    return name, value + 1


class TestSequential:
    def test_map_preserves_order(self):
        with TrialPool() as pool:
            assert pool.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_map_empty(self):
        assert TrialPool().map(_square, []) == []

    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError):
            TrialPool(processes=0)


class TestParallel:
    def test_parallel_matches_sequential(self):
        jobs = list(range(20))
        sequential = TrialPool(1).map(_square, jobs)
        with TrialPool(2) as pool:
            parallel = pool.map(_square, jobs)
        assert parallel == sequential

    def test_pool_is_reusable_across_maps(self):
        with TrialPool(2) as pool:
            first = pool.map(_square, range(8))
            second = pool.map(_square, range(8, 16))
        assert first == [x * x for x in range(8)]
        assert second == [x * x for x in range(8, 16)]

    def test_tuple_jobs(self):
        jobs = [("a", 1), ("b", 2)]
        with TrialPool(2) as pool:
            assert pool.map(_run_cell_like, jobs) == [("a", 2), ("b", 3)]

    def test_single_job_runs_inline(self):
        pool = TrialPool(4)
        assert pool.map(_square, [5]) == [25]
        # One job never warrants spinning up workers.
        assert pool._pool is None

    def test_close_is_idempotent(self):
        pool = TrialPool(2)
        pool.map(_square, range(4))
        pool.close()
        pool.close()
        assert pool._pool is None


class TestDeadWorker:
    """A worker that dies mid-batch makes ``map`` raise, never hang.

    Each case runs in a child interpreter under a ``timeout``: were the
    lost job awaited forever, the child would hang, and the bound turns
    that into a failure instead of a stuck suite."""

    def _child(self, code):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__)), ROOT])}
        proc = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(code)], cwd=ROOT,
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def test_map_raises_naming_the_dead_worker(self):
        result = self._child("""
            import json, time
            from repro.experiments.pool import TrialPool
            from repro.sim.errors import SimulationError
            from tests.analysis.test_trial_pool import kill_worker_if_job

            jobs = [(i, i == 5) for i in range(12)]
            with TrialPool(2) as pool:
                start = time.monotonic()
                try:
                    pool.map(kill_worker_if_job, jobs)
                except SimulationError as exc:
                    print(json.dumps({"error": str(exc),
                                      "seconds": time.monotonic() - start,
                                      "torn_down": pool._pool is None}))
        """)
        assert result["seconds"] < 10
        assert "trial pool worker pid " in result["error"]
        assert "(exit code 17) died" in result["error"]
        assert result["torn_down"]

    def test_finished_chunks_are_stored_and_a_rerun_runs_the_rest(self):
        result = self._child("""
            import json
            from repro.experiments import GracefulShutdown, run_jobs
            from repro.experiments.campaign import DRAIN_CHUNK, job_key
            from repro.sim.errors import SimulationError
            from tests.analysis.test_trial_pool import kill_worker_if_job

            jobs = [(i, i == DRAIN_CHUNK + 2) for i in range(20)]
            store = {}

            def keep(index, value):
                store[job_key(jobs[index])] = value

            try:
                run_jobs(kill_worker_if_job, jobs, processes=2, store=store,
                         sink=keep,
                         shutdown=GracefulShutdown(verbose=False))
            except SimulationError:
                pass
            stored = sorted(store.values())
            rerun = []

            def tracked(job):
                rerun.append(job[0])
                return job[0]

            values = run_jobs(tracked, jobs, store=store, sink=keep)
            print(json.dumps({"chunk": DRAIN_CHUNK, "stored": stored,
                              "rerun": rerun, "values": values}))
        """)
        chunk = result["chunk"]
        # The first chunk finished before the death; the dying chunk
        # stored nothing and the third never started.
        assert result["stored"] == list(range(chunk))
        assert result["rerun"] == list(range(chunk, 20))
        assert result["values"] == [None] * chunk + list(range(chunk, 20))
