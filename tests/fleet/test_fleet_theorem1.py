"""A Theorem 1 portfolio is an ordinary fleet campaign: two worker
processes drain its lower-bound specs into a verify-clean store whose
records equal the in-process run's."""

from repro.experiments import theorem1_specs
from repro.fleet import FleetCampaign, FleetConfig, run_fleet
from repro.store import execute_batch


def test_two_workers_drain_lower_bound_specs(tmp_path):
    root = str(tmp_path / "campaign")
    specs = theorem1_specs(n=32, f=8, seeds=[0, 1], samples=2,
                           phase1_cap=300)
    config = FleetConfig(lease_ttl=5.0, heartbeat_interval=0.5,
                         backoff_base=0.05, backoff_cap=0.5,
                         poll_interval=0.02)
    status = run_fleet(root, specs=specs, workers=2, config=config,
                       timeout=120.0)
    assert status["exit_codes"] == [0, 0]
    assert status["complete"] and status["failed"] == 0
    assert status["verify_ok"] and status["verify"]["unique"] == len(specs)

    store = FleetCampaign.open(root).open_store()
    assert [store.get(spec.spec_hash) for spec in specs] \
        == execute_batch(specs)
