"""Benchmark ENGINE-BATCH: the vectorized batched-trial engine.

Measures wall-clock for B seeds of one cell run two ways — the scalar
``engine="stepwise"`` reference, one trial at a time, vs. one
:class:`~repro.sim.batch.engine.BatchSimulation` advancing all B seeds
per tick.

The batch engine's win is amortization: one numpy dispatch per tick
covers B trials' worth of scheduling, delivery, merge, emptiness test
and sends, so the per-trial interpreter overhead that dominates the
scalar engines on *dense* schedules (where the leap engine has nothing
to skip — see bench_engine_leap.py) is divided by B. The headline cell
is therefore exactly the leap benchmark's control: failure-free dense
``RoundRobinWindows(64)`` at n=128, where leap is honestly ~1x. Its gate
is order — one B-trial batch is not slower than B stepwise runs — on the
failure-free cells; how many times faster is in the report's trajectory
(6.7x when the file was first written at PR 7, ≈ 2.4x since PRs 13–18
made the stepwise trial 2.5x cheaper). Crash plans force the per-trial
python crash path and queue compaction, so that cell is recorded, not
gated.

The batch engine is seed-deterministic under its own counter-based RNG
discipline, not bit-identical to scalar (distributional equivalence is
tested in tests/sim/test_batch_engine.py), so unlike the leap benchmark
this one requires *batch-side determinism* across repeats, never
cross-engine equality. The leap benchmark's dense scalar control (auto
vs. stepwise, parity) rides along so a batch-engine regression that
leaks into the scalar path is caught here too.

Without numpy the batch cells are recorded as ``skipped`` with the
reason and nothing else — the scalar control still runs.
"""

from __future__ import annotations

import _harness as harness
from bench_engine_leap import cell as scalar_cell

from repro.sim.batch import batch_ineligibility
from repro.spec.builder import execute
from repro.spec.runspec import RunSpec
from repro.spec.vectorized import run_batch_specs

BENCHMARK = "engine_batch"


def batch_cell(cell_id, spec, trials, *, gated, note=""):
    def seeds(engine):
        return [spec.replace(seed=seed, engine=engine)
                for seed in range(trials)]

    def measure(repeats):
        reason = batch_ineligibility(spec.replace(engine="batch"))
        if reason is not None:
            raise harness.Skipped(reason)
        scalar, vector = seeds("stepwise"), seeds("batch")
        scalar_s, _ = harness.best_of(
            lambda: [harness.fingerprint(execute(one)) for one in scalar],
            repeats)
        vector_s, _ = harness.best_of(
            lambda: [harness.fingerprint(run)
                     for run in run_batch_specs(vector)],
            repeats)
        return harness.versus("stepwise_s", scalar_s, "batch_s", vector_s)

    return harness.Cell(
        cell_id, note,
        {"algorithm": spec.algorithm, "n": spec.n, "f": spec.resolved_f,
         "d": spec.d, "delta": spec.delta, "crashes": spec.crashes,
         "trials": trials},
        measure,
        (harness.gate("speedup", ">=", harness.ORDER_FLOOR),) if gated else (),
    )


def cells(quick):
    if quick:
        dense32 = RunSpec(algorithm="ears", n=32, f=0, d=2, delta=16, seed=0)
        return [
            batch_cell("quick-batch32-rrw16-n32-ears-failure-free", dense32,
                       32, gated=True, note="shrunken headline cell"),
            batch_cell("quick-batch16-rrw16-n32-sears-crashes",
                       RunSpec(algorithm="sears", n=32, f=8, d=2, delta=16,
                               seed=0, crashes=8),
                       16, gated=False,
                       note="shrunken crash cell; recorded, not gated"),
            scalar_cell("quick-auto-rrw16-n32-ears-failure-free", dense32,
                        quick=True, sparse=False, engine="auto",
                        note="shrunken dense scalar control (loose quick "
                             "parity, see bench_engine_leap)"),
        ]
    dense128 = RunSpec(algorithm="ears", n=128, f=0, d=2, delta=64, seed=0)
    return [
        batch_cell("batch64-rrw64-n128-ears-failure-free", dense128, 64,
                   gated=True,
                   note="headline: the leap benchmark's dense control, "
                        "where skipping wins nothing and only amortization "
                        "helps"),
        batch_cell("batch64-rrw64-n128-sears-crashes",
                   RunSpec(algorithm="sears", n=128, f=32, d=2, delta=64,
                           seed=0, crashes=32),
                   64, gated=False,
                   note="crash plans force the per-trial python crash path "
                        "and queue compaction; recorded, not gated"),
        batch_cell("batch128-rrw64-n128-ears-failure-free", dense128, 128,
                   gated=True,
                   note="doubling B: amortization should hold or improve"),
        scalar_cell("auto-rrw64-n128-ears-failure-free", dense128,
                    quick=False, sparse=False, engine="auto",
                    note="dense scalar control: auto holds parity with "
                         "stepwise (same gate as bench_engine_leap), so the "
                         "batch dispatch layer costs the scalar path "
                         "nothing"),
    ]


if __name__ == "__main__":
    raise SystemExit(harness.main(__name__))
