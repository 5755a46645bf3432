"""Unit tests for the lease protocol, attempts budget, and fleet config."""

import json
import os
import time

import pytest

from repro.fleet import (
    FleetCampaign,
    FleetConfig,
    claim,
    read_all_leases,
    read_lease,
    reap_expired,
    refresh,
    release,
)
from repro.sim.errors import ConfigurationError
from repro.spec import RunSpec
from repro.store import parse_shard


def _specs(count=4):
    return [RunSpec(kind="gossip", algorithm="ears", n=16, f=4, seed=s)
            for s in range(count)]


class TestClaim:
    def test_claim_is_exclusive(self, tmp_path):
        d = str(tmp_path)
        first = claim(d, "k1", "w0", ttl=5.0)
        assert first is not None and first.worker == "w0"
        assert claim(d, "k1", "w1", ttl=5.0) is None
        assert claim(d, "k2", "w1", ttl=5.0) is not None

    def test_claim_leaves_no_temp_files(self, tmp_path):
        d = str(tmp_path)
        claim(d, "k1", "w0", ttl=5.0)
        claim(d, "k1", "w1", ttl=5.0)  # lost race
        assert sorted(os.listdir(d)) == ["k1.json"]

    def test_read_lease_roundtrip(self, tmp_path):
        d = str(tmp_path)
        lease = claim(d, "k1", "w0", ttl=5.0, attempt=3)
        got = read_lease(d, "k1")
        assert got == lease and got.attempt == 3

    def test_corrupt_lease_reads_as_broken(self, tmp_path):
        d = str(tmp_path)
        (tmp_path / "k1.json").write_text("{torn")
        assert read_lease(d, "k1") is None
        assert reap_expired(d) == ["k1"]
        assert os.listdir(d) == []


class TestRefreshRelease:
    def test_refresh_extends_expiry(self, tmp_path):
        d = str(tmp_path)
        lease = claim(d, "k1", "w0", ttl=0.5)
        renewed = refresh(d, lease, ttl=60.0)
        assert renewed is not None
        assert renewed.expires_at > lease.expires_at
        assert read_lease(d, "k1").expires_at == renewed.expires_at

    def test_refresh_after_peer_reclaim_loses(self, tmp_path):
        d = str(tmp_path)
        mine = claim(d, "k1", "w0", ttl=0.01)
        time.sleep(0.02)
        assert reap_expired(d) == ["k1"]
        theirs = claim(d, "k1", "w1", ttl=60.0, attempt=2)
        assert theirs is not None
        assert refresh(d, mine, ttl=60.0) is None
        # and the peer's lease is untouched
        assert read_lease(d, "k1").worker == "w1"

    def test_release_only_own_lease(self, tmp_path):
        d = str(tmp_path)
        mine = claim(d, "k1", "w0", ttl=0.01)
        time.sleep(0.02)
        reap_expired(d)
        claim(d, "k1", "w1", ttl=60.0)
        assert release(d, mine) is False
        assert read_lease(d, "k1").worker == "w1"
        theirs = read_lease(d, "k1")
        assert release(d, theirs) is True
        assert read_lease(d, "k1") is None

    def test_reap_spares_live_leases(self, tmp_path):
        d = str(tmp_path)
        claim(d, "live", "w0", ttl=60.0)
        claim(d, "dead", "w0", ttl=0.01)
        time.sleep(0.02)
        assert reap_expired(d) == ["dead"]
        assert [lease.key for lease in read_all_leases(d)] == ["live"]


class TestAttemptsBudget:
    def test_attempts_count_and_backoff(self, tmp_path):
        campaign = FleetCampaign.create(
            str(tmp_path / "c"), _specs(),
            config=FleetConfig(backoff_base=0.5, backoff_cap=2.0))
        key = "deadbeef"
        assert campaign.attempt_state(key)["attempts"] == 0
        assert campaign.record_attempt(key, "w0") == 1
        assert campaign.record_attempt(key, "w0") == 2
        assert campaign.record_job_failure(key, "w0", "boom") is None
        state = campaign.attempt_state(key)
        assert state["attempts"] == 2 and state["error"] == "boom"
        assert state["not_before"] > time.time()
        # capped exponential: base * 2^(n-1), capped
        assert campaign.backoff_for(1) == 0.5
        assert campaign.backoff_for(2) == 1.0
        assert campaign.backoff_for(10) == 2.0

    def test_budget_exhaustion_is_terminal(self, tmp_path):
        campaign = FleetCampaign.create(
            str(tmp_path / "c"), _specs(),
            config=FleetConfig(max_attempts=2))
        key = "deadbeef"
        campaign.record_attempt(key, "w0")
        assert campaign.record_job_failure(key, "w0", "first") is None
        campaign.record_attempt(key, "w1")
        terminal = campaign.record_job_failure(key, "w1", "second")
        assert terminal is not None and terminal["attempts"] == 2
        assert "deadbeef" in campaign.terminal_failures()
        # terminal keys leave the missing set
        assert key not in campaign.missing_keys()

    def test_terminal_failure_truncates_error(self, tmp_path):
        campaign = FleetCampaign.create(
            str(tmp_path / "c"), _specs(),
            config=FleetConfig(max_attempts=1))
        campaign.record_attempt("k", "w0")
        terminal = campaign.record_job_failure("k", "w0", "x" * 10000)
        assert len(terminal["error"]) <= 2000


class TestConfigAndShard:
    def test_parse_shard(self):
        assert parse_shard("0/4") == (0, 4)
        assert parse_shard("3/4") == (3, 4)
        for bad in ("4/4", "-1/4", "0/0", "1", "a/b"):
            with pytest.raises(ConfigurationError):
                parse_shard(bad)

    def test_config_validation(self):
        with pytest.raises(ConfigurationError, match="positive"):
            FleetConfig(lease_ttl=0).validate()
        with pytest.raises(ConfigurationError, match="max_attempts"):
            FleetConfig(max_attempts=0).validate()
        with pytest.raises(ConfigurationError, match="half the lease"):
            FleetConfig(lease_ttl=1.0,
                        heartbeat_interval=0.9).validate()

    def test_config_roundtrip_and_schema_gate(self):
        config = FleetConfig(lease_ttl=7.0)
        assert FleetConfig.from_dict(config.to_dict()) == config
        with pytest.raises(ConfigurationError, match="schema version"):
            FleetConfig.from_dict({"schema": 99})

    def test_create_refuses_clobber_and_open_roundtrips(self, tmp_path):
        root = str(tmp_path / "c")
        specs = _specs()
        campaign = FleetCampaign.create(
            root, specs, config=FleetConfig(lease_ttl=7.0))
        with pytest.raises(ConfigurationError, match="already exists"):
            FleetCampaign.create(root, specs)
        reopened = FleetCampaign.open(root)
        assert reopened.config.lease_ttl == 7.0
        assert [s.spec_hash for s in reopened.load_specs()] == \
            [s.spec_hash for s in specs]
        with pytest.raises(ConfigurationError, match="no fleet campaign"):
            FleetCampaign.open(str(tmp_path / "nowhere"))

    def test_trailing_median(self, tmp_path):
        campaign = FleetCampaign.create(str(tmp_path / "c"), _specs())
        assert campaign.trailing_median_duration() is None
        for duration in (1.0, 2.0, 9.0):
            campaign.record_timing("k", "w0", duration)
        assert campaign.trailing_median_duration() == 2.0
        campaign.record_timing("k", "w0", 3.0)
        assert campaign.trailing_median_duration() == 2.5
