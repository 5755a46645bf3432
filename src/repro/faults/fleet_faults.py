"""Fleet-level chaos: orchestrator faults against real worker processes.

The second chaos matrix (``repro chaos --matrix fleet``; ``model`` is
the first).  Simulation faults break the execution model, store faults
break the artifact log; these break the **fleet protocol** itself — the
lease/heartbeat/re-issue machinery of :mod:`repro.fleet` — against live
``repro fleet join`` subprocesses draining a real campaign directory.
Each injector reproduces one distributed-systems failure:

* :class:`WorkerKillFault` — SIGKILL a worker while it holds a lease
  (crash mid-job; the lease must expire and a peer must re-issue);
* :class:`HeartbeatStallFault` — SIGSTOP a lease holder until peers
  reap its lease and re-issue, then SIGCONT it (a GC/NFS stall: the
  zombie resumes, finishes, and its commit must dedupe, not duplicate);
* :class:`LeaseTamperFault` — overwrite an active lease file with torn
  garbage (corrupt coordination state must be treated as a broken
  claim and reaped, never trusted or crashed on);
* :class:`DuplicateClaimFault` — forge a zombie lease on a missing key
  and simultaneously race the fleet by executing and committing another
  missing key in-process (claim-race + first-completion-wins dedupe).

The detection contract is uniform, and stricter than "it didn't crash":
after the fault, the surviving fleet must finish the campaign such that
the store verifies clean with **zero missing and zero double-counted
cells** and every record bit-identical to an uninterrupted
single-process reference run (``"fleet-recovered"``).  The matrix is a
cell list; the one chaos runner (:mod:`repro.faults.campaign`) starts,
injects, waits for, judges (:func:`_judge_cell`) and tears down each
cell's fleet, the uninjected control's included.
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
from typing import Any, Dict, List, Optional, Sequence

from ..sim.errors import Registry
from ..spec.builder import execute
from ..spec.runspec import RunSpec
from ..store.base import metrics_of
from .campaign import CampaignReport, chaos_cell, run_chaos_cells

__all__ = [
    "FLEET_FAULTS",
    "DuplicateClaimFault",
    "FleetFault",
    "HeartbeatStallFault",
    "LeaseTamperFault",
    "WorkerKillFault",
    "run_fleet_campaign",
]


class FleetFault:
    """Base: one seeded disturbance of a live fleet.

    ``inject`` runs while the fleet drains; it must leave the campaign
    in a state the surviving workers can finish from.  The campaign
    judges recovery afterwards (``expects`` names the verdict).
    """

    name = "fleet-fault"
    expects = ("fleet-recovered",)

    def inject(self, fleet: Any, rng: random.Random) -> Dict[str, Any]:
        raise NotImplementedError


def _victim_lease(fleet: Any, rng: random.Random,
                  timeout: float = 30.0) -> Any:
    """An active lease held by one of the fleet's own workers."""
    pids = {proc.pid for proc in fleet.procs}
    deadline = time.time() + timeout
    from ..fleet.leases import read_all_leases

    while time.time() < deadline:
        held = [lease for lease in read_all_leases(
            fleet.campaign.leases_dir) if lease.pid in pids]
        if held:
            return rng.choice(sorted(held, key=lambda l: l.key))
        time.sleep(0.01)
    from ..fleet.driver import FleetTimeout

    raise FleetTimeout("no worker-held lease appeared to inject into")


class WorkerKillFault(FleetFault):
    """SIGKILL a worker mid-lease; peers must re-issue its job."""

    name = "fleet-worker-kill"

    def inject(self, fleet: Any, rng: random.Random) -> Dict[str, Any]:
        lease = _victim_lease(fleet, rng)
        os.kill(lease.pid, signal.SIGKILL)
        return {"victim_pid": lease.pid, "orphaned_key": lease.key,
                "killed": 1}


class HeartbeatStallFault(FleetFault):
    """SIGSTOP a lease holder until peers reap it, then SIGCONT.

    The resumed worker's refresh discovers the lost lease; its
    execution continues speculatively and its commit must deduplicate
    against the peer's re-issued result.
    """

    name = "fleet-heartbeat-stall"

    def inject(self, fleet: Any, rng: random.Random) -> Dict[str, Any]:
        from ..fleet.leases import read_lease

        lease = _victim_lease(fleet, rng)
        os.kill(lease.pid, signal.SIGSTOP)
        try:
            # Hold the stall until the victim's lease is gone (reaped)
            # or re-issued to a peer — the interesting resume window.
            ttl = fleet.campaign.config.lease_ttl
            deadline = time.time() + 4 * ttl + 10.0
            while time.time() < deadline:
                current = read_lease(fleet.campaign.leases_dir, lease.key)
                if current is None or not lease.owns(current):
                    break
                time.sleep(0.02)
        finally:
            os.kill(lease.pid, signal.SIGCONT)
        return {"victim_pid": lease.pid, "stalled_key": lease.key}


class LeaseTamperFault(FleetFault):
    """Overwrite an active lease file with torn garbage.

    Unparseable coordination state must classify as a broken claim:
    reaped and re-issued, with the original holder's refresh observing
    the loss and falling back to speculative execution.
    """

    name = "fleet-lease-tamper"

    def inject(self, fleet: Any, rng: random.Random) -> Dict[str, Any]:
        lease = _victim_lease(fleet, rng)
        path = os.path.join(fleet.campaign.leases_dir,
                            f"{lease.key}.json")
        torn = json.dumps(lease.to_dict())[:rng.randrange(1, 20)]
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(torn)
        return {"tampered_key": lease.key, "torn_bytes": len(torn)}


class DuplicateClaimFault(FleetFault):
    """Forge a zombie lease and race the fleet on a second key.

    Two arms: (1) a hand-forged, never-refreshed lease squats on a
    missing key — workers must honor it while live, reap it at TTL, and
    re-issue; (2) this process executes a *different* missing key and
    commits it directly, racing any worker that claims the same key —
    first-completion-wins must leave exactly one record either way.
    """

    name = "fleet-duplicate-claim"

    def inject(self, fleet: Any, rng: random.Random) -> Dict[str, Any]:
        from ..fleet.leases import claim

        campaign = fleet.campaign
        store = campaign.open_store()
        specs = campaign.load_specs()
        missing = campaign.missing_keys(store=store, specs=specs)
        info: Dict[str, Any] = {"squatted_key": None, "raced_key": None}
        if missing:
            squatted = rng.choice(sorted(missing))
            claim(campaign.leases_dir, squatted, "chaos-zombie",
                  ttl=campaign.config.lease_ttl, attempt=1,
                  pid=os.getpid())
            info["squatted_key"] = squatted
        by_key = {spec.spec_hash: spec for spec in specs}
        remaining = [key for key in missing
                     if key != info["squatted_key"]]
        if remaining:
            raced = rng.choice(sorted(remaining))
            spec = by_key[raced]
            _, inserted = store.put_new(spec, metrics_of(execute(spec)))
            info["raced_key"] = raced
            info["race_inserted"] = inserted
        return info


FLEET_FAULTS = Registry("fleet fault", {cls.name: cls for cls in (
    WorkerKillFault, HeartbeatStallFault, LeaseTamperFault,
    DuplicateClaimFault)})


def _fleet_specs(seed: int, trial: int, count: int) -> List[RunSpec]:
    return [
        RunSpec(kind="gossip", algorithm="ears", n=96, f=24,
                seed=seed * 1000 + trial * 100 + index)
        for index in range(count)
    ]


def _reference_metrics(specs: Sequence[RunSpec]) -> Dict[str, Any]:
    """Uninterrupted single-process execution, keyed by spec hash."""
    return {spec.spec_hash: metrics_of(execute(spec)) for spec in specs}


def _judge_cell(campaign: Any, exit_codes: List[int],
                reference: Dict[str, Any],
                info: Dict[str, Any]) -> Optional[str]:
    """``None`` when the fleet fully recovered, else the first defect."""
    store = campaign.open_store()
    verify = store.verify()
    if not verify.get("ok"):
        return f"store corrupt after recovery: {verify['corrupt'][:2]}"
    if verify.get("superseded"):
        return (f"{verify['superseded']} double-counted cell(s) "
                f"survived dedupe")
    failed = campaign.terminal_failures()
    if failed:
        return f"{len(failed)} terminal failure(s): {sorted(failed)[:2]}"
    missing = campaign.missing_keys(store=store)
    if missing:
        return f"{len(missing)} cell(s) lost: {missing[:2]}"
    leases = os.listdir(campaign.leases_dir)
    if leases:
        return f"stale lease file(s) left behind: {leases[:2]}"
    budget = campaign.config.max_attempts
    for key in reference:
        attempts = campaign.attempt_state(key)["attempts"]
        if attempts > budget:
            return (f"key {key} consumed {attempts} attempts "
                    f"(budget {budget})")
    for key, expected in reference.items():
        record = store.get(key)
        if record is None:
            return f"record for {key} vanished between checks"
        if record.get("metrics") != expected:
            return (f"key {key} diverged from the single-process "
                    f"reference run")
    survivors_ok = all(code in (0, -signal.SIGKILL)
                       for code in exit_codes)
    if not survivors_ok:
        return f"worker exit codes {exit_codes} include a crash"
    return None


def run_fleet_campaign(
    seed: int = 0,
    trials: int = 3,
    faults: Optional[Sequence[str]] = None,
    workers: int = 2,
    specs_per_cell: int = 8,
    keep_dirs: bool = False,
) -> CampaignReport:
    """Run every fleet fault ``trials`` times against live fleets, plus
    one uninjected control fleet that must also land clean.

    Each cell: a fresh campaign of ``specs_per_cell`` seeded gossip
    specs, ``workers`` subprocess workers on aggressive timings
    (2 s lease TTL), the cell's fault injected, then the recovery
    judgment of :func:`_judge_cell` — complete, verify-clean,
    dedupe-exact, and seed-for-seed identical to the uninterrupted
    reference.
    """
    names = sorted(FLEET_FAULTS) if faults is None else list(faults)
    sizes = {"workers": workers, "specs": specs_per_cell,
             "keep_dirs": keep_dirs}
    cells = [
        chaos_cell("fleet", name, "fleet", "ears", trial, seed,
                   FLEET_FAULTS[name].expects, **sizes)
        for name in names for trial in range(trials)
    ]
    cells.append(chaos_cell("fleet", "(none)", "fleet", "ears", 0, seed,
                            FleetFault.expects, control=True, **sizes))
    return run_chaos_cells(cells)
