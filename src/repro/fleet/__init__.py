"""Fault-tolerant multi-worker campaign orchestration.

``repro.fleet`` lets N independent worker processes drain one campaign
over a shared directory with no single point of failure: lease-based job
claims, heartbeats, peer-driven expiry and re-issue with capped backoff
and a bounded per-key budget, straggler speculation, and work stealing —
all deduplicated first-completion-wins through the store's atomic
insert-if-absent.  See ``docs/robustness.md`` for the protocol and its
safety/liveness argument.
"""

from .driver import (FleetTimeout, LiveFleet, run_fleet, spawn_worker,
                     start_fleet)
from .heartbeat import beat, read_workers
from .layout import FLEET_SCHEMA_VERSION, FleetCampaign, FleetConfig
from .leases import (Lease, claim, read_all_leases, read_lease,
                     reap_expired, refresh, release)
from .worker import FleetIntegrityError, FleetWorker

__all__ = [
    "FLEET_SCHEMA_VERSION",
    "FleetCampaign",
    "FleetConfig",
    "FleetIntegrityError",
    "FleetTimeout",
    "FleetWorker",
    "Lease",
    "LiveFleet",
    "beat",
    "claim",
    "read_all_leases",
    "read_lease",
    "reap_expired",
    "refresh",
    "release",
    "run_fleet",
    "spawn_worker",
    "start_fleet",
]
