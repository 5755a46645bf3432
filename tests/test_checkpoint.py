"""Checkpoint manifests, graceful shutdown, and resumable drivers."""

import json
import signal

import pytest

from repro.experiments import (
    CampaignDrained,
    CampaignManifest,
    GracefulShutdown,
    GridSpec,
    run_jobs,
    theorem1_rows,
    theorem1_specs,
)
from repro.spec import RunSpec
from repro.store import JsonlStore, execute_batch
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


def _nested_tuple(args):
    return (args[0], (args[0], args[0] + 1))


def _values(jobs, fn, **kwargs):
    """``run_jobs`` reduced to its values (None for a failed job)."""
    return [outcome.value for outcome in run_jobs(fn, jobs, **kwargs)]


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        manifest = CampaignManifest(path, meta={"driver": "test",
                                                "rng": {"seeds": [0, 1]}})
        manifest.submit("a", {"x": 1})
        manifest.submit("b", {"x": 2})
        manifest.complete("a", 17)
        manifest.fail("b", "boom")
        manifest.save()

        loaded = CampaignManifest.load(path)
        assert loaded.meta["rng"] == {"seeds": [0, 1]}
        assert loaded.completed == {"a": 17}
        assert loaded.failed == {"b": "boom"}
        assert loaded.missing_keys() == ["b"]
        assert not (tmp_path / "campaign.json.tmp").exists()

    def test_ensure_resumes_existing_path_keeping_meta(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        CampaignManifest(path, meta={"driver": "original"}).save()
        resumed = CampaignManifest.ensure(path, meta={"driver": "other"})
        assert resumed.meta["driver"] == "original"
        fresh = CampaignManifest.ensure(str(tmp_path / "new.json"),
                                        meta={"driver": "other"})
        assert fresh.meta["driver"] == "other"

    def test_unknown_manifest_schema_refused(self, tmp_path):
        path = tmp_path / "campaign.json"
        path.write_text(json.dumps({"schema": 99}))
        from repro.sim.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="schema version"):
            CampaignManifest.load(str(path))

    def test_checkpoint_cadence(self, tmp_path):
        path = tmp_path / "campaign.json"
        manifest = CampaignManifest(str(path), checkpoint_every=3)
        manifest.complete("a")
        manifest.complete("b")
        assert not manifest.maybe_save() and not path.exists()
        manifest.complete("c")
        assert manifest.maybe_save() and path.exists()

    @pytest.mark.parametrize("bad", [0, -1, "three", None, 2.5])
    def test_checkpoint_every_rejects_non_positive(self, tmp_path, bad):
        from repro.sim.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            CampaignManifest(str(tmp_path / "c.json"),
                             checkpoint_every=bad)

    def test_failure_strings_truncated_and_attempts_counted(
            self, tmp_path):
        from repro.experiments.campaign import MAX_FAILURE_CHARS

        path = str(tmp_path / "campaign.json")
        manifest = CampaignManifest(path)
        manifest.submit("job", {"x": 1})
        manifest.fail("job", "boom " * 10000)
        assert len(manifest.failed["job"]) \
            <= MAX_FAILURE_CHARS + len(" ... [truncated 99999 chars]")
        assert "truncated" in manifest.failed["job"]
        manifest.fail("job", "boom again")
        assert manifest.failed["job"] == "boom again"
        assert manifest.attempts["job"] == 2

        manifest.save()
        loaded = CampaignManifest.load(path)
        assert loaded.attempts == {"job": 2}
        assert loaded.summary()["attempts"] == 2
        # explicit attempts (e.g. merged from a shard) take the max
        loaded.fail("job", "merged", attempts=5)
        assert loaded.attempts["job"] == 5
        loaded.fail("job", "stale shard", attempts=3)
        assert loaded.attempts["job"] == 5


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
    def test_results_match_plain_map_and_resume_skips(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        jobs = [(value,) for value in range(5)]
        results = _values(jobs, _square, manifest=path, checkpoint_every=2)
        assert results == [0, 1, 4, 9, 16]

        # Resume re-executes nothing: a poisoned job_fn proves it.
        def boom(args):
            raise AssertionError("resume must not re-run completed jobs")

        assert _values(jobs, boom, manifest=path) == results

    def test_fresh_and_resumed_results_share_shape(self, tmp_path):
        """Regression: fresh jobs returned raw values while resumed jobs
        returned JSON-coerced ones, so a resumed run could yield
        structurally different results (nested tuples became lists).
        Both paths must take the same encode → JSON trip."""
        path = str(tmp_path / "campaign.json")
        jobs = [(1,), (2,)]
        kwargs = dict(manifest=path, sink=lambda _index, value: list(value))
        fresh = _values(jobs, _nested_tuple, **kwargs)

        def boom(args):
            raise AssertionError("resume must not re-run completed jobs")

        resumed = _values(jobs, boom, **kwargs)
        assert fresh == resumed
        # The nested tuple is JSON-coerced to a list in both runs alike.
        assert fresh == [[1, [1, 2]], [2, [2, 3]]]

    def test_failed_jobs_stay_missing_and_retry(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        jobs = [(2,), (-1,), (3,)]
        results = _values(jobs, _maybe_square, manifest=path,
                          trial_timeout=30)
        assert results == [4, None, 9]
        manifest = CampaignManifest.load(path)
        assert len(manifest.failed) == 1
        assert manifest.missing_keys() == list(manifest.failed)

        # The retry run executes only the failed job.
        executed = []

        def tracked(args):
            executed.append(args)
            return _square(args)

        results = _values(jobs, tracked, manifest=path, trial_timeout=30)
        assert results == [4, 1, 9]
        assert executed == [(-1,)]  # only the failed job re-ran

    def test_preset_shutdown_drains_before_work(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        shutdown = GracefulShutdown(verbose=False)
        shutdown.requested = True
        with pytest.raises(CampaignDrained) as excinfo:
            _values([(1,)], _square, manifest=path, shutdown=shutdown)
        assert excinfo.value.remaining == 1
        assert CampaignManifest.load(path).drained

    def test_drain_mid_campaign_then_resume(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        shutdown = GracefulShutdown(verbose=False)
        jobs = [(value,) for value in range(6)]
        done = []

        def stop_after_two(args):
            done.append(args[0])
            if len(done) == 2:
                shutdown.requested = True
            return _square(args)

        with pytest.raises(CampaignDrained) as excinfo:
            _values(jobs, stop_after_two, manifest=path,
                    checkpoint_every=1, shutdown=shutdown)
        assert 0 < excinfo.value.completed < 6
        assert excinfo.value.completed + excinfo.value.remaining == 6

        results = _values(jobs, _square, manifest=path)
        assert results == [0, 1, 4, 9, 16, 25]


class TestCheckpointedBatch:
    def test_batch_checkpoints_and_resumes_from_store(self, tmp_path):
        store_path = str(tmp_path / "runs.jsonl")
        manifest_path = str(tmp_path / "batch.json")
        specs = [SPEC.replace(seed=seed) for seed in range(3)]

        records = execute_batch(specs, store=JsonlStore(store_path),
                                manifest=manifest_path, checkpoint_every=1)
        assert all(r["metrics"]["completed"] for r in records)
        manifest = CampaignManifest.load(manifest_path)
        assert sorted(manifest.submitted) == sorted(
            spec.spec_hash for spec in specs
        )
        assert manifest.missing_keys() == []
        # Store is the source of truth: completions carry no payload.
        assert set(manifest.completed.values()) == {None}

        # Identical records to an unmanifested batch on the same store.
        plain = execute_batch(specs, store=JsonlStore(store_path))
        assert plain == records

    def test_batch_backfills_manifest_from_store(self, tmp_path):
        """Records that reached the store before a crash could write the
        checkpoint are recognized on resume (the store wins)."""
        store_path = str(tmp_path / "runs.jsonl")
        manifest_path = str(tmp_path / "batch.json")
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
                          manifest=manifest_path)
        finally:
            batch_module._spec_job = real_job
        assert executed == [1]
        manifest = CampaignManifest.load(manifest_path)
        assert manifest.missing_keys() == []

    def test_storeless_batch_keeps_metrics_in_manifest(self, tmp_path):
        manifest_path = str(tmp_path / "batch.json")
        specs = [SPEC.replace(seed=seed) for seed in range(2)]
        records = execute_batch(specs, manifest=manifest_path)

        def boom(spec_dict):
            raise AssertionError("resume must not re-execute")

        import repro.store.batch as batch_module

        real = batch_module._spec_job
        try:
            batch_module._spec_job = boom
            resumed = execute_batch(specs, manifest=manifest_path)
        finally:
            batch_module._spec_job = real
        assert [r["metrics"] for r in resumed] == [
            r["metrics"] for r in records
        ]


class TestCheckpointedDrivers:
    def test_sweep_checkpointed_equals_plain(self, tmp_path):
        specs = sweep_specs("ears", ns=[16, 32], f_of_n=quarter,
                            seeds=range(2))
        plain = sweep_gossip("ears", ns=[16, 32], f_of_n=quarter,
                             seeds=range(2))
        manifest_path = str(tmp_path / "sweep.json")
        checkpointed = sweep_points(
            specs, execute_batch(specs, manifest=manifest_path))
        assert checkpointed == plain
        meta = CampaignManifest.load(manifest_path).meta
        assert meta["driver"] == "execute_batch"
        assert meta["rng"] == {"seeds": [0, 1]}

    def test_sweep_refuses_manifest_in_the_older_tuple_format(
            self, tmp_path):
        """Sweep jobs used to be positional tuples; such a manifest can
        never key-match a spec job, so it is refused, not half-resumed."""
        from repro.experiments.campaign import job_key
        from repro.sim.errors import ConfigurationError

        job = ("ears", 16, 4, 1, 1, 0, None, None, None, "auto", None)
        old = CampaignManifest(str(tmp_path / "sweep.json"),
                               meta={"driver": "sweep"})
        old.submit(job_key(job), list(job))
        old.complete(job_key(job), [True, 30, 500])
        old.save()
        before = (tmp_path / "sweep.json").read_text()

        with pytest.raises(ConfigurationError,
                           match="written by the 'sweep' driver"):
            execute_batch(sweep_specs("ears", ns=[16], f_of_n=quarter,
                                      seeds=[0]), manifest=old.path)
        assert (tmp_path / "sweep.json").read_text() == before

    @pytest.mark.parametrize("driver", ["sweep", "theorem1", "batch",
                                        "grid"])
    def test_shutdown_requires_manifest(self, driver):
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
        with pytest.raises(ValueError, match="needs a manifest"):
            run()

    def test_theorem1_checkpointed_equals_plain(self, tmp_path,
                                                monkeypatch):
        specs = theorem1_specs(n=32, f=8, seeds=[0], algorithms=["trivial"],
                               samples=2, phase1_cap=200)
        plain = execute_batch(specs)
        manifest_path = str(tmp_path / "thm1.json")
        checkpointed = execute_batch(specs, manifest=manifest_path)
        assert checkpointed == plain
        assert len(theorem1_rows(checkpointed)) == 1

        # Resume reads the persisted reports instead of re-running.
        import repro.store.batch as batch_module

        def boom(spec_dict):
            raise AssertionError("resume must not re-execute")

        monkeypatch.setattr(batch_module, "_spec_job", boom)
        resumed = execute_batch(specs, manifest=manifest_path)
        assert resumed == plain
        assert theorem1_rows(resumed) == theorem1_rows(plain)
