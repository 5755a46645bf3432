"""Fleet crash recovery end-to-end: SIGKILL one worker mid-lease.

The fleet analogue of ``tests/test_campaign_resume.py``: four real
sharded worker processes drain one campaign; the parent waits until one
of them holds a lease, SIGKILLs it, and the survivors must finish —
lease expiry, peer re-issue, and first-completion-wins dedupe leave the
store complete, verify-clean, with exactly one record per cell, and
seed-for-seed identical to an uninterrupted single-process run.
Parametrized over both store backends.
"""

import os
import signal
import time

import pytest

from repro.fleet import FleetConfig, start_fleet
from repro.spec import RunSpec
from repro.store.base import metrics_of
from repro.spec.builder import execute

N_SPECS = 24
WORKERS = 4


def _specs():
    return [
        RunSpec(kind="gossip", algorithm="ears", n=96, f=24, seed=seed)
        for seed in range(N_SPECS)
    ]


@pytest.fixture(scope="module")
def reference():
    """Metrics of the uninterrupted single-process run, by spec hash
    (computed once, shared across both backend params)."""
    return {spec.spec_hash: metrics_of(execute(spec))
            for spec in _specs()}


@pytest.mark.parametrize("backend,store_name", [
    ("jsonl", "store.jsonl"),
    ("sqlite", "store.sqlite"),
])
def test_fleet_survives_worker_sigkill(tmp_path, reference, backend,
                                       store_name):
    specs = _specs()
    config = FleetConfig(
        store=store_name, backend=backend,
        lease_ttl=2.0, heartbeat_interval=0.5,
        backoff_base=0.1, backoff_cap=1.0, max_attempts=5,
        poll_interval=0.02,
    )
    fleet = start_fleet(str(tmp_path / "campaign"), specs=specs,
                        workers=WORKERS, config=config)
    try:
        victim = fleet.procs[0]
        fleet.wait_for_active_lease(timeout=60.0, pid=victim.pid)
        os.kill(victim.pid, signal.SIGKILL)
        exit_codes = fleet.wait(timeout=180.0)
    finally:
        fleet.kill_all()

    # the victim died by our signal; every survivor exited clean
    assert exit_codes[0] == -signal.SIGKILL
    assert all(code == 0 for code in exit_codes[1:])

    campaign = fleet.campaign
    store = campaign.open_store()
    status = campaign.status(store=store)
    assert status["complete"] and status["missing"] == 0
    assert status["failed"] == 0
    assert status["leased"] == 0

    # exactly one record per cell, nothing corrupt, nothing duplicated
    verify = store.verify()
    assert verify["ok"]
    assert verify["unique"] == N_SPECS
    assert verify["superseded"] == 0

    # seed-for-seed identical to the uninterrupted single-process run
    for spec in specs:
        record = store.get(spec.spec_hash)
        assert record is not None
        assert record["metrics"] == reference[spec.spec_hash]

    # attempts bounded by the budget
    for spec in specs:
        attempts = campaign.attempt_state(spec.spec_hash)["attempts"]
        assert attempts <= config.max_attempts
