"""TrialPool: ordering, parallel/sequential equivalence, fault tolerance."""

import os
import time

import pytest

from repro.experiments.pool import TrialPool


# Jobs ship to worker processes, so they are module-level functions.

def _square(x):
    return x * x


def raise_if_job(arg):
    """``(value, should_raise)`` — raise deterministically on demand."""
    value, should_raise = arg
    if should_raise:
        raise RuntimeError(f"injected failure for {value!r}")
    return value


def hang_if_job(arg):
    """``(value, should_hang)`` — sleep far past any sane trial timeout."""
    value, should_hang = arg
    if should_hang:
        time.sleep(3600)
    return value


def kill_worker_if_job(arg):
    """``(value, should_die)`` — kill the worker process outright."""
    value, should_die = arg
    if should_die:
        os._exit(17)
    return value


def flaky_until_marker_job(arg):
    """``(value, marker_path)`` — fail once per missing marker, then pass.

    The first call creates ``marker_path`` and raises; every later call
    (a retry, possibly in a different worker) sees the marker and
    succeeds, so retries are observable across process boundaries.
    """
    value, marker_path = arg
    if not os.path.exists(marker_path):
        with open(marker_path, "w", encoding="utf-8") as handle:
            handle.write("failed-once\n")
        raise RuntimeError(f"flaky failure for {value!r} (first attempt)")
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


class TestMapOutcomes:
    def test_all_ok_preserves_order_and_values(self):
        with TrialPool(2) as pool:
            outcomes = pool.map_outcomes(_square, [3, 1, 2])
        assert [o.value for o in outcomes] == [9, 1, 4]
        assert all(o.ok and o.status == "ok" for o in outcomes)
        assert [o.index for o in outcomes] == [0, 1, 2]

    def test_empty_jobs(self):
        assert TrialPool(2).map_outcomes(_square, []) == []

    def test_raising_job_is_failed_others_ok(self):
        jobs = [(0, False), (1, True), (2, False)]
        with TrialPool(2) as pool:
            outcomes = pool.map_outcomes(raise_if_job, jobs)
        assert [o.status for o in outcomes] == ["ok", "failed", "ok"]
        assert outcomes[1].value is None
        assert "injected failure" in outcomes[1].error
        assert outcomes[1].attempts == 1

    def test_hung_job_times_out_and_batch_completes(self):
        jobs = [(0, False), (1, True), (2, False), (3, False)]
        with TrialPool(2) as pool:
            outcomes = pool.map_outcomes(hang_if_job, jobs,
                                         timeout=1.0)
        assert [o.status for o in outcomes] == [
            "ok", "timed-out", "ok", "ok",
        ]
        assert [o.value for o in outcomes] == [0, None, 2, 3]
        assert "timeout" in outcomes[1].error

    def test_lost_worker_resubmits_without_burning_a_retry(self):
        # Two workers: inline mode would take pytest down with the job.
        jobs = [(i, i == 2) for i in range(6)]
        with TrialPool(processes=2) as pool:
            outcomes = pool.map_outcomes(kill_worker_if_job, jobs,
                                         timeout=30)
        assert [o.status for o in outcomes] == [
            "ok", "ok", "failed", "ok", "ok", "ok",
        ]
        assert "worker process died 3 times" in outcomes[2].error
        assert [o.value for o in outcomes] == [0, 1, None, 3, 4, 5]
        # Jobs lost with their worker were resubmitted, not retried.
        assert [o.attempts for o in outcomes] == [1] * 6

    def test_retry_succeeds_after_transient_failure(self, tmp_path):
        flaky_marker = str(tmp_path / "flaky-marker")
        steady_marker = str(tmp_path / "steady-marker")
        (tmp_path / "steady-marker").write_text("pre-existing\n")
        with TrialPool(2) as pool:
            outcomes = pool.map_outcomes(
                flaky_until_marker_job,
                [(7, flaky_marker), (8, steady_marker)],
                retries=2,
            )
        flaky, steady = outcomes
        # The job that failed once was retried and succeeded; attempts
        # shows both executions.
        assert flaky.ok and flaky.value == 7 and flaky.attempts == 2
        # The sibling whose marker pre-existed passed on its first try.
        assert steady.ok and steady.value == 8 and steady.attempts == 1

    def test_retry_exhaustion_in_parallel(self):
        with TrialPool(2) as pool:
            outcomes = pool.map_outcomes(raise_if_job, [(0, True)],
                                         retries=1, backoff=0.0)
        assert outcomes[0].status == "failed"
        assert outcomes[0].attempts == 2

    def test_inline_retry_exhaustion(self):
        outcomes = TrialPool(1).map_outcomes(
            raise_if_job, [(0, True)], retries=2, backoff=0.0,
        )
        assert outcomes[0].status == "failed"
        assert outcomes[0].attempts == 3
        assert isinstance(outcomes[0].exception, RuntimeError)

    def test_inline_matches_map_semantics_when_clean(self):
        inline = TrialPool(1).map_outcomes(_square, range(5))
        assert [o.value for o in inline] == [x * x for x in range(5)]

    def test_pool_reusable_after_failures(self):
        with TrialPool(2) as pool:
            bad = pool.map_outcomes(raise_if_job, [(0, True), (1, False)])
            good = pool.map(_square, range(4))
        assert bad[0].status == "failed" and bad[1].ok
        assert good == [0, 1, 4, 9]
