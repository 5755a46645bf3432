"""Benchmark FLEET: orchestration overhead and multi-worker drain.

Measures what the fault-tolerance machinery of :mod:`repro.fleet`
costs when nothing goes wrong — the honest price of leases, heartbeats,
attempt accounting, and insert-if-absent dedupe:

* **single-worker overhead** — one in-process :class:`FleetWorker`
  draining a campaign vs. the same specs executed directly
  (``execute`` + ``put_new``). The gate is a ceiling on the per-job
  orchestration overhead: claiming, refreshing, and releasing a lease
  is a handful of tiny file operations and must stay a small constant
  cost, not scale with the simulation.
* **two-worker drain** — two real ``repro fleet join`` subprocesses
  draining a sharded campaign. Completeness is exact and raises (store
  verify clean, zero missing, zero failed, zero superseded) — the
  drain time itself is machine-dependent and only reported.

``--quick`` shrinks the campaign for CI; the full run uses more specs
for a steadier overhead estimate.
"""

from __future__ import annotations

import os
import tempfile

import _harness as harness

from repro.fleet import FleetCampaign, FleetConfig, FleetWorker, run_fleet
from repro.spec.builder import execute
from repro.spec.runspec import RunSpec
from repro.store import open_store
from repro.store.base import metrics_of

BENCHMARK = "fleet"

FULL_SPECS = 48
QUICK_SPECS = 12

#: Per-job orchestration overhead ceiling. Lease claim + refresh +
#: release + attempts bookkeeping is ~10 small file ops; 150 ms/job is
#: an order of magnitude above anything healthy (≈ 5 ms measured).
OVERHEAD_CEILING_MS = 150

CONFIG = FleetConfig(poll_interval=0.01)


def overhead_cell(specs):
    def direct(store):
        return sum(store.put_new(spec, metrics_of(execute(spec)))[1]
                   for spec in specs)

    def worker(campaign):
        summary = FleetWorker(campaign, "bench").run()
        return summary["completed"], campaign.status()["complete"]

    def measure(repeats):
        with tempfile.TemporaryDirectory(prefix="bench-fleet-") as root:
            direct_s, stored = harness.best_of(
                direct, repeats, fresh=lambda: open_store(
                    os.path.join(tempfile.mkdtemp(dir=root), "direct.jsonl")))
            solo_s, drained = harness.best_of(
                worker, repeats, fresh=lambda: FleetCampaign.create(
                    tempfile.mkdtemp(dir=root), specs, config=CONFIG))
        harness.require_equal(len(specs), stored, "direct arm stored")
        harness.require_equal(
            (len(specs), True), drained, "single worker (completed, complete)")
        return {
            "direct_s": harness.seconds(direct_s),
            "single_worker_s": harness.seconds(solo_s),
            "overhead_ms_per_job": round(
                max(0.0, solo_s - direct_s) / len(specs) * 1000, 2),
        }

    return harness.Cell(
        "single-worker-overhead",
        "one in-process FleetWorker against execute + put_new of the "
        "same specs",
        {"specs": len(specs)}, measure,
        (harness.gate("overhead_ms_per_job", "<=", OVERHEAD_CEILING_MS),),
    )


def drain_cell(specs):
    def drain(root):
        status = run_fleet(root, specs=specs, workers=2, timeout=600.0,
                           config=CONFIG)
        return {
            "complete": status["complete"],
            "verify_ok": status["verify_ok"],
            "missing": status["missing"],
            "failed": status["failed"],
            "superseded": status["verify"]["superseded"],
        }

    def measure(repeats):
        with tempfile.TemporaryDirectory(prefix="bench-fleet-") as root:
            duo_s, outcome = harness.best_of(
                drain, repeats, fresh=lambda: tempfile.mkdtemp(dir=root))
        harness.require_equal(
            {"complete": True, "verify_ok": True, "missing": 0,
             "failed": 0, "superseded": 0},
            outcome, "two-worker drain is not complete and verify-clean")
        return {"two_worker_s": harness.seconds(duo_s)}

    return harness.Cell(
        "two-worker-drain",
        "two `repro fleet join` subprocesses on a sharded campaign; "
        "complete and verify-clean or the cell raises",
        {"specs": len(specs), "workers": 2}, measure,
    )


def cells(quick):
    specs = [RunSpec(kind="gossip", algorithm="ears", n=96, f=24, seed=seed)
             for seed in range(QUICK_SPECS if quick else FULL_SPECS)]
    return [overhead_cell(specs), drain_cell(specs)]


if __name__ == "__main__":
    raise SystemExit(harness.main(__name__))
