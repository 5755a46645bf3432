"""Fleet chaos injectors: registry plumbing plus one live campaign cell.

CI's fleet chaos smoke runs the other three injectors through
``repro chaos --matrix fleet``; here we keep one cheap live cell —
lease tampering needs no process signals, so it is the fastest injector
that still exercises claim/reap/re-issue against real workers.
"""

import pytest

from repro.faults import FLEET_FAULTS, run_fleet_campaign
from repro.sim.errors import ConfigurationError


class TestRegistry:
    def test_all_injectors_registered(self):
        assert {"fleet-worker-kill", "fleet-heartbeat-stall",
                "fleet-lease-tamper",
                "fleet-duplicate-claim"} <= set(FLEET_FAULTS)

    def test_make_fleet_fault(self):
        fault = FLEET_FAULTS["fleet-worker-kill"]()
        assert fault.name == "fleet-worker-kill"
        assert fault.expects == ("fleet-recovered",)
        with pytest.raises(ConfigurationError, match="unknown fleet"):
            FLEET_FAULTS["fleet-nope"]
        with pytest.raises(KeyError):
            FLEET_FAULTS["fleet-nope"]


class TestLiveCell:
    def test_lease_tamper_cell_recovers(self):
        report = run_fleet_campaign(
            seed=7, trials=1, faults=["fleet-lease-tamper"], workers=2,
            specs_per_cell=6)
        assert len(report.cells) == 1
        cell = report.cells[0]
        assert cell.kind == "fleet" and cell.fault == "fleet-lease-tamper"
        assert cell.ok, cell.message
        assert report.controls == 1 and not report.false_positives
        assert report.ok
