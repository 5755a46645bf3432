"""Graceful shutdown and resumable drivers: a campaign resumes from its
store."""

import json
import signal

import pytest

from repro.experiments import (
    CampaignDrained,
    GracefulShutdown,
    GridSpec,
    run_jobs,
    theorem1_rows,
    theorem1_specs,
)
from repro.experiments.campaign import DRAIN_CHUNK, job_key
from repro.spec import RunSpec
from repro.store import JsonlStore, execute_batch, open_store
from repro.workloads.sweeps import (
    quarter,
    sweep_gossip,
    sweep_points,
    sweep_specs,
)

SPEC = RunSpec(algorithm="ears", n=16, f=4, d=1, delta=1, seed=0)


def _square(args):
    return args[0] * args[0]


def _maybe_square(args):
    if args[0] < 0:
        raise ValueError("negative")
    return args[0] * args[0]


def _keeper(jobs, store):
    """A ``run_jobs`` sink that records each fresh value in ``store``."""
    def keep(index, value):
        store[job_key(jobs[index])] = value
    return keep


def _values(jobs, fn, **kwargs):
    """``run_jobs`` reduced to its values (None for a failed job)."""
    return [outcome.value for outcome in run_jobs(fn, jobs, **kwargs)]


class TestGracefulShutdown:
    def test_first_signal_sets_flag_second_hard_stops(self):
        with GracefulShutdown(signals=(signal.SIGTERM,),
                              verbose=False) as shutdown:
            assert not shutdown()
            signal.raise_signal(signal.SIGTERM)
            assert shutdown() and bool(shutdown)
            with pytest.raises(KeyboardInterrupt, match="hard stop"):
                signal.raise_signal(signal.SIGTERM)

    def test_previous_handler_restored_on_exit(self):
        before = signal.getsignal(signal.SIGTERM)
        with GracefulShutdown(signals=(signal.SIGTERM,), verbose=False):
            assert signal.getsignal(signal.SIGTERM) is not before
        assert signal.getsignal(signal.SIGTERM) is before

    def test_previous_handler_restored_when_body_raises(self):
        before = signal.getsignal(signal.SIGTERM)
        with pytest.raises(RuntimeError, match="body exploded"):
            with GracefulShutdown(signals=(signal.SIGTERM,),
                                  verbose=False):
                assert signal.getsignal(signal.SIGTERM) is not before
                raise RuntimeError("body exploded")
        assert signal.getsignal(signal.SIGTERM) is before

    def test_second_signal_hard_stops_even_mid_drain(self):
        # the hard-stop escalation must fire from the handler itself,
        # not depend on the body ever polling the shutdown flag
        before = signal.getsignal(signal.SIGTERM)
        with GracefulShutdown(signals=(signal.SIGTERM,),
                              verbose=False) as shutdown:
            signal.raise_signal(signal.SIGTERM)
            with pytest.raises(KeyboardInterrupt, match="hard stop"):
                signal.raise_signal(signal.SIGTERM)
            assert shutdown()  # still draining state after escalation
        # and the escalated exit still restored the original handler
        assert signal.getsignal(signal.SIGTERM) is before


class TestCheckpointedJobs:
    """``run_jobs`` against a store: anything answering ``key in store``
    (here a dict the sink fills) is the campaign's progress record."""

    def test_results_match_plain_map_and_resume_skips(self):
        jobs = [(value,) for value in range(5)]
        store = {}
        results = _values(jobs, _square, store=store,
                          sink=_keeper(jobs, store))
        assert results == [0, 1, 4, 9, 16]
        assert [store[job_key(job)] for job in jobs] == results

        # Resume re-executes nothing: a poisoned job_fn proves it.
        def boom(args):
            raise AssertionError("resume must not re-run completed jobs")

        outcomes = run_jobs(boom, jobs, store=store)
        assert all(o.ok and o.attempts == 0 for o in outcomes)

    def test_fresh_and_resumed_results_share_shape(self, tmp_path):
        """Regression: fresh results once came back raw while resumed
        ones came back JSON-coerced, so a resumed run could yield
        structurally different results.  Both now come from the store."""
        store = JsonlStore(str(tmp_path / "runs.jsonl"))
        specs = [SPEC.replace(seed=seed) for seed in range(2)]
        fresh = execute_batch(specs, store=store)

        def boom(spec_dict):
            raise AssertionError("resume must not re-run completed jobs")

        import repro.store.batch as batch_module

        real = batch_module._spec_job
        try:
            batch_module._spec_job = boom
            resumed = execute_batch(
                specs, store=JsonlStore(str(tmp_path / "runs.jsonl")))
        finally:
            batch_module._spec_job = real
        assert fresh == resumed

    def test_failed_jobs_stay_missing_and_retry(self):
        jobs = [(2,), (-1,), (3,)]
        store = {}
        results = _values(jobs, _maybe_square, store=store,
                          sink=_keeper(jobs, store), trial_timeout=30)
        assert results == [4, None, 9]
        assert job_key((-1,)) not in store  # failures are never stored

        # The retry run executes only the failed job.
        executed = []

        def tracked(args):
            executed.append(args)
            return _square(args)

        _values(jobs, tracked, store=store, sink=_keeper(jobs, store),
                trial_timeout=30)
        assert executed == [(-1,)]  # only the failed job re-ran
        assert [store[job_key(job)] for job in jobs] == [4, 1, 9]

    def test_preset_shutdown_drains_before_work(self):
        shutdown = GracefulShutdown(verbose=False)
        shutdown.requested = True
        with pytest.raises(CampaignDrained) as excinfo:
            _values([(1,)], _square, store={}, shutdown=shutdown)
        assert (excinfo.value.completed, excinfo.value.remaining) == (0, 1)

    def test_drain_mid_campaign_then_resume(self):
        shutdown = GracefulShutdown(verbose=False)
        jobs = [(value,) for value in range(20)]
        store = {}
        done = []

        def stop_after_two(args):
            done.append(args[0])
            if len(done) == 2:
                shutdown.requested = True
            return _square(args)

        with pytest.raises(CampaignDrained) as excinfo:
            _values(jobs, stop_after_two, store=store,
                    sink=_keeper(jobs, store), shutdown=shutdown)
        # The chunk in flight finishes; the next one never starts.
        assert excinfo.value.completed == len(store) == DRAIN_CHUNK
        assert excinfo.value.remaining == 20 - DRAIN_CHUNK

        _values(jobs, _square, store=store, sink=_keeper(jobs, store))
        assert [store[job_key(job)] for job in jobs] == [
            value * value for value in range(20)]


class TestCheckpointedBatch:
    def test_batch_checkpoints_and_resumes_from_store(self, tmp_path):
        store_path = str(tmp_path / "runs.jsonl")
        specs = [SPEC.replace(seed=seed) for seed in range(3)]

        records = execute_batch(specs, store=JsonlStore(store_path),
                                shutdown=GracefulShutdown(verbose=False))
        assert all(r["metrics"]["completed"] for r in records)
        assert sorted(r["spec_hash"] for r in JsonlStore(
            store_path).records()) == sorted(s.spec_hash for s in specs)

        # Identical records to a batch without a drain hook.
        plain = execute_batch(specs, store=JsonlStore(store_path))
        assert plain == records

    def test_batch_resumes_from_records_stored_before_a_crash(
            self, tmp_path):
        """Records that reached the store before a crash are cache hits
        on resume: the store is the progress record."""
        store_path = str(tmp_path / "runs.jsonl")
        specs = [SPEC.replace(seed=seed) for seed in range(2)]
        execute_batch(specs[:1], store=JsonlStore(store_path))

        executed = []
        import repro.store.batch as batch_module

        real_job = batch_module._spec_job

        def spy(spec_dict):
            executed.append(spec_dict["seed"])
            return real_job(spec_dict)

        try:
            batch_module._spec_job = spy
            execute_batch(specs, store=JsonlStore(store_path),
                          shutdown=GracefulShutdown(verbose=False))
        finally:
            batch_module._spec_job = real_job
        assert executed == [1]
        assert len(JsonlStore(store_path)) == 2


class TestCheckpointedDrivers:
    def test_sweep_checkpointed_equals_plain(self, tmp_path):
        specs = sweep_specs("ears", ns=[16, 32], f_of_n=quarter,
                            seeds=range(2))
        plain = sweep_gossip("ears", ns=[16, 32], f_of_n=quarter,
                             seeds=range(2))
        store = open_store(str(tmp_path / "sweep.sqlite"))
        checkpointed = sweep_points(specs, execute_batch(
            specs, store=store, shutdown=GracefulShutdown(verbose=False)))
        assert checkpointed == plain
        assert len(store) == len(specs)

    def test_sweep_refuses_manifest_in_the_older_tuple_format(
            self, tmp_path, capsys):
        """Sweeps once checkpointed positional job tuples into a JSON
        manifest.  ``--resume`` now names a store, so such a file is
        refused by name and left as it was, not half-resumed."""
        from repro.cli import main

        path = tmp_path / "sweep.json"
        job = ["ears", 16, 4, 1, 1, 0, None, None, None, "auto", None]
        path.write_text(json.dumps({
            "schema": 1, "meta": {"driver": "sweep"},
            "submitted": {json.dumps(job): job},
            "completed": {json.dumps(job): [True, 30, 500]},
        }))
        before = path.read_text()

        assert main(["sweep", "--algorithm", "ears", "--min-n", "16",
                     "--max-n", "16", "--seeds", "1",
                     "--resume", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "names a JSON manifest" in captured.err
        assert path.read_text() == before

    @pytest.mark.parametrize("driver", ["sweep", "theorem1", "batch",
                                        "grid"])
    def test_shutdown_requires_store(self, driver):
        shutdown = GracefulShutdown(verbose=False)
        run = {
            "sweep": lambda: execute_batch(sweep_specs(
                "ears", ns=[16], f_of_n=quarter), shutdown=shutdown),
            "theorem1": lambda: execute_batch(theorem1_specs(
                n=32, f=8, seeds=[0], algorithms=["trivial"]),
                shutdown=shutdown),
            "batch": lambda: execute_batch([SPEC], shutdown=shutdown),
            "grid": lambda: execute_batch(GridSpec(
                "g", "gossip", grid={"algorithm": ["trivial"], "n": [8]},
            ).specs(), shutdown=shutdown),
        }[driver]
        with pytest.raises(ValueError, match="needs a store"):
            run()

    def test_theorem1_checkpointed_equals_plain(self, tmp_path,
                                                monkeypatch):
        specs = theorem1_specs(n=32, f=8, seeds=[0], algorithms=["trivial"],
                               samples=2, phase1_cap=200)
        plain = execute_batch(specs)
        store_path = str(tmp_path / "thm1.sqlite")
        checkpointed = execute_batch(
            specs, store=open_store(store_path),
            shutdown=GracefulShutdown(verbose=False))
        assert [r["metrics"] for r in checkpointed] == [
            r["metrics"] for r in plain]
        assert len(theorem1_rows(checkpointed)) == 1

        # Resume reads the stored reports instead of re-running.
        import repro.store.batch as batch_module

        def boom(spec_dict):
            raise AssertionError("resume must not re-execute")

        monkeypatch.setattr(batch_module, "_spec_job", boom)
        resumed = execute_batch(specs, store=open_store(store_path),
                                shutdown=GracefulShutdown(verbose=False))
        assert resumed == checkpointed
        assert theorem1_rows(resumed) == theorem1_rows(plain)
