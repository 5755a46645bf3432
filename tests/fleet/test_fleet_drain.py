"""In-process fleet worker behavior: drain, steal, poison, dedupe."""

import json
import os

import pytest

from repro.fleet import (
    FleetCampaign,
    FleetConfig,
    FleetIntegrityError,
    FleetWorker,
    claim,
)
from repro.fleet import worker as worker_mod
from repro.spec import RunSpec
from repro.store.base import make_record, metrics_of
from repro.store.merge import shard_specs


def _specs(count=6, n=64):
    return [RunSpec(kind="gossip", algorithm="ears", n=n, f=n // 4,
                    seed=s) for s in range(count)]


def _fast_config(**overrides):
    defaults = dict(lease_ttl=2.0, heartbeat_interval=0.5,
                    backoff_base=0.01, backoff_cap=0.05,
                    poll_interval=0.01)
    defaults.update(overrides)
    return FleetConfig(**defaults)


class TestDrain:
    def test_zero_workers_is_refused_before_the_campaign_exists(
            self, tmp_path):
        from repro.fleet.driver import start_fleet
        from repro.sim.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="at least 1 worker"):
            start_fleet(str(tmp_path / "c"), _specs(1), workers=0)
        assert not (tmp_path / "c").exists()

    def test_single_worker_drains_and_cleans_up(self, tmp_path):
        specs = _specs()
        campaign = FleetCampaign.create(str(tmp_path / "c"), specs,
                                        config=_fast_config())
        summary = FleetWorker(campaign, "w0").run()
        assert summary["completed"] == len(specs)
        assert summary["failed"] == 0 and summary["superseded"] == 0

        store = campaign.open_store()
        status = campaign.status(store=store)
        assert status["complete"] and status["missing"] == 0
        assert status["leased"] == 0
        verify = store.verify()
        assert verify["ok"] and verify["unique"] == len(specs)
        assert verify["superseded"] == 0

    @pytest.mark.parametrize("store, backend", [
        ("store.jsonl", "auto"), ("store.sqlite", "sqlite")])
    def test_config_with_a_backend_key_opens_and_drains(
            self, tmp_path, store, backend):
        """Older builds wrote a ``backend`` key into ``fleet.json``; the
        store's file name now picks the backend, and the key is read
        past."""
        specs = _specs(count=2, n=16)
        root = str(tmp_path / "c")
        FleetCampaign.create(root, specs, config=_fast_config(store=store))
        config_path = os.path.join(root, "fleet.json")
        with open(config_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert "backend" not in payload
        payload["backend"] = backend
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)

        campaign = FleetCampaign.open(root)
        assert FleetWorker(campaign, "w0").run()["completed"] == len(specs)
        opened = campaign.open_store()
        assert opened.backend == store.split(".")[1]
        assert campaign.status(store=opened)["complete"]
        assert opened.verify()["ok"] and len(opened) == len(specs)

    def test_store_interops_with_resume(self, tmp_path, monkeypatch):
        """The fleet's store is an ordinary campaign store: a resumable
        ``execute_batch`` of the same specs against it runs nothing,
        and the per-key attempt counts stay in ``attempts/``."""
        import repro.store.batch as batch_module
        from repro.experiments import GracefulShutdown
        from repro.store import execute_batch

        specs = _specs(count=4)
        campaign = FleetCampaign.create(str(tmp_path / "c"), specs,
                                        config=_fast_config())
        FleetWorker(campaign, "w0").run()
        assert campaign.missing_keys() == []
        assert sum(campaign.attempt_state(s.spec_hash)["attempts"]
                   for s in specs) == len(specs)

        def boom(spec_dict):
            raise AssertionError("resume of a drained fleet must not run")

        monkeypatch.setattr(batch_module, "_spec_job", boom)
        records = execute_batch(specs, store=campaign.open_store(),
                                shutdown=GracefulShutdown(verbose=False))
        assert [r["spec_hash"] for r in records] == [
            s.spec_hash for s in specs]

    def test_sharded_worker_steals_foreign_keys(self, tmp_path):
        specs = _specs(count=8)
        campaign = FleetCampaign.create(str(tmp_path / "c"), specs,
                                        config=_fast_config())
        # Alone on shard 0/2, the worker must finish the whole
        # campaign by stealing shard 1's keys once its slice drains.
        summary = FleetWorker(campaign, "w0", shard=(0, 2)).run()
        foreign = len(shard_specs(specs, 1, 2))
        assert summary["completed"] == len(specs)
        assert summary["stolen"] == foreign > 0
        assert campaign.status()["complete"]

    def test_status_after_run_fleet_counts_no_live_worker(self, tmp_path):
        """Each worker beats ``done`` as it leaves; that record is still
        fresh (30 s here), but it is not a live worker."""
        from repro.fleet import run_fleet

        root = str(tmp_path / "c")
        status = run_fleet(root, specs=_specs(count=4, n=16), workers=2,
                           config=_fast_config(lease_ttl=60.0,
                                               heartbeat_interval=10.0),
                           timeout=120.0)
        assert status["exit_codes"] == [0, 0] and status["complete"]
        assert status["workers"] == 2 and status["live_workers"] == 0
        assert FleetCampaign.open(root).status()["live_workers"] == 0

    def test_max_jobs_budget_stops_early(self, tmp_path):
        campaign = FleetCampaign.create(str(tmp_path / "c"), _specs(),
                                        config=_fast_config())
        summary = FleetWorker(campaign, "w0", max_jobs=2).run()
        assert summary["jobs"] == 2
        assert campaign.status()["missing"] == 4


class TestPoisonJob:
    def test_poison_job_fails_terminally_not_livelocks(
            self, tmp_path, monkeypatch):
        specs = _specs(count=4)
        poisoned = specs[0].spec_hash
        campaign = FleetCampaign.create(
            str(tmp_path / "c"), specs,
            config=_fast_config(max_attempts=3))
        real = worker_mod._execute_spec

        def poisoned_execute(spec):
            if spec.spec_hash == poisoned:
                raise RuntimeError("poison " + "x" * 5000)
            return real(spec)

        monkeypatch.setattr(worker_mod, "_execute_spec",
                            poisoned_execute)
        summary = FleetWorker(campaign, "w0").run()
        assert summary["completed"] == 3
        assert summary["failed"] == 3  # budget of 3 tries, all burned

        failures = campaign.terminal_failures()
        assert set(failures) == {poisoned}
        assert failures[poisoned]["attempts"] == 3
        assert len(failures[poisoned]["error"]) <= 2000
        # terminal failure completes the campaign
        assert campaign.status()["complete"]
        # attempts/ and failed/ are the fleet's record of the poison job
        assert campaign.attempt_state(poisoned)["attempts"] == 3
        assert os.path.exists(
            os.path.join(campaign.failed_dir, f"{poisoned}.json"))

    def test_a_terminal_failure_makes_run_and_status_exit_1(
            self, tmp_path, capsys):
        from repro.cli import main

        specs = tmp_path / "bad.jsonl"
        specs.write_text('{"algorithm": "ears", "n": 16, "f": 4, '
                         '"crashes": {"events": {"2": [99]}}}\n')
        fleet = str(tmp_path / "fleet")
        assert main(["fleet", "run", "--specs", str(specs), "--dir", fleet,
                     "--workers", "1", "--max-attempts", "1"]) == 1
        assert "1 terminal failure(s)" in capsys.readouterr().out
        assert main(["fleet", "status", "--dir", fleet]) == 1
        # Nothing is left to run: the failure is the campaign's outcome.
        assert "complete  True" in capsys.readouterr().out

    def test_backoff_delays_reclaim(self, tmp_path):
        campaign = FleetCampaign.create(
            str(tmp_path / "c"), _specs(count=1),
            config=_fast_config(backoff_base=60.0, backoff_cap=60.0,
                                max_attempts=5))
        key = campaign.load_specs()[0].spec_hash
        campaign.record_attempt(key, "w0")
        campaign.record_job_failure(key, "w0", "transient")
        worker = FleetWorker(campaign, "w1", max_jobs=1)
        # the only missing key is backed off for a minute: not claimable
        assert worker._claim_next({key}) is None


class TestDedupe:
    def test_duplicate_commit_is_superseded_not_duplicated(
            self, tmp_path):
        specs = _specs(count=2)
        campaign = FleetCampaign.create(str(tmp_path / "c"), specs,
                                        config=_fast_config())
        store = campaign.open_store()
        # a racer commits one key first
        store.put_new(specs[0], metrics_of(
            worker_mod.execute(specs[0])))
        summary = FleetWorker(campaign, "w0").run()
        assert summary["completed"] == 1
        verify = campaign.open_store().verify()
        assert verify["unique"] == 2 and verify["superseded"] == 0

    def test_divergent_duplicate_raises_integrity_error(self, tmp_path):
        specs = _specs(count=1)
        campaign = FleetCampaign.create(str(tmp_path / "c"), specs,
                                        config=_fast_config())
        store = campaign.open_store()
        forged = make_record(specs[0], {"completed": True,
                                        "messages": -1})
        store.put_record(forged)
        worker = FleetWorker(campaign, "w0")
        with pytest.raises(FleetIntegrityError, match="diverged"):
            worker._commit(specs[0], metrics_of(
                worker_mod.execute(specs[0])))


class TestStraggler:
    def test_straggler_speculation_duplicates_old_lease(self, tmp_path):
        specs = _specs(count=2)
        campaign = FleetCampaign.create(
            str(tmp_path / "c"), specs,
            config=_fast_config(straggler_factor=2.0,
                                straggler_min_age=1e-6))
        key = specs[0].spec_hash
        # a "slow peer" holds the lease, and history says jobs are fast
        claim(campaign.leases_dir, key, "slowpoke", ttl=60.0)
        for _ in range(4):
            campaign.record_timing("other", "w1", 1e-9)
        worker = FleetWorker(campaign, "w0")
        marker = worker._claim_straggler({key})
        assert marker is not None and marker.speculative
        assert marker.key == key
        assert worker.counters["speculative"] == 1
        # own leases and fresh history are not speculated on
        worker2 = FleetWorker(campaign, "slowpoke")
        assert worker2._claim_straggler({key}) is None
