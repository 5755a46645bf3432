"""Benchmark ENGINE-LEAP: the event-driven time-leap fast path.

Measures wall-clock for the same runs under ``engine="stepwise"`` (the
reference loop) and a fast engine (``"leap"`` or ``"auto"``, per cell),
asserts the results are bit-identical, and emits
``BENCH_engine_leap.json``.

The leap engine's win is bounded by schedule *density*: a failure-free
``RoundRobinWindows(delta)`` schedule with ``n >= delta`` keeps every step
busy (ceil(n/delta) pids per residue), so there is nothing to skip and the
honest speedup is ~1x — that cell is included as the control. The sparse
regimes the paper cares about — a crash wave leaving ``n - f`` survivors
inside a δ-window sized for ``n`` (the ``n/(n-f)`` slowdown of Theorem 4),
or δ much larger than ``n`` — leave most steps empty, and there the leap
engine skips them in O(1).

``"auto"`` (the default) and ``"leap"`` are the same loop: one
``next_event_at`` query per executed step, answered from a residue index
in O(log n). On a dense schedule that query is all the loop adds over
stepwise, so both dense controls gate on parity (floor 0.95x, measurement
noise allowed); the ``auto`` sparse cells check that the default engine
gets the leap win — including the failure-free ``delta >> n`` cell whose
first 128 steps of every window are busy, which the former density probe
mistook for a dense run.

Usage (standalone, not pytest-benchmark)::

    PYTHONPATH=src python benchmarks/bench_engine_leap.py \
        --out BENCH_engine_leap.json
    PYTHONPATH=src python benchmarks/bench_engine_leap.py --quick

``--quick`` runs shrunken cells in a few seconds for CI; each sparse cell
still gates on "leap is not slower than stepwise". The full run gates the
headline sparse cells on their committed speedup floors.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

if "src" not in sys.path:  # allow running without PYTHONPATH=src
    sys.path.insert(
        0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "src")
    )

from repro.adversary.crash_plans import wave_crashes  # noqa: E402
from repro.adversary.delay_plans import HashDelay  # noqa: E402
from repro.adversary.oblivious import ObliviousAdversary  # noqa: E402
from repro.sim.scheduler import RoundRobinWindows  # noqa: E402
from repro.spec.builder import execute  # noqa: E402
from repro.spec.runspec import RunSpec  # noqa: E402


def two_survivor_wave(n, delta, d, seed):
    """All but pids {0, 1} crash at t=1; the δ-window still rotates all n
    residues, so ~(n-2)/n of steps schedule nobody — the paper's n/(n-f)
    starvation regime, and the leap engine's headline case."""

    def factory():
        return ObliviousAdversary(
            schedule=RoundRobinWindows(delta),
            delays=HashDelay(d, seed=seed),
            crashes=wave_crashes(range(2, n), at=1),
        )

    return factory


def cell(cell_id, spec, *, sparse, min_speedup=None, adversary=None,
         engine="leap", note=""):
    return {
        "id": cell_id,
        "spec": spec,
        "sparse": sparse,
        "min_speedup": min_speedup,
        "adversary": adversary,
        "engine": engine,
        "note": note,
    }


def full_cells():
    return [
        cell(
            "rrw64-n128-ears-failure-free",
            RunSpec(algorithm="ears", n=128, f=0, d=2, delta=64, seed=0),
            sparse=False,
            min_speedup=0.95,
            note="control: dense residue map (2 pids/step), nothing to "
                 "skip — parity is the gate",
        ),
        cell(
            "rrw64-n128-ears-wave-2-survivors",
            RunSpec(algorithm="ears", n=128, f=126, d=2, delta=64, seed=0),
            sparse=True,
            min_speedup=5.0,
            adversary=two_survivor_wave(128, 64, 2, seed=0),
            note="126 of 128 crash at t=1; 62/64 of steps are empty "
                 "(Theorem 4's n/(n-f) regime)",
        ),
        cell(
            "delta512-n128-ears-failure-free",
            RunSpec(algorithm="ears", n=128, f=0, d=2, delta=512, seed=0),
            sparse=True,
            min_speedup=1.5,
            note="delta > n: 384/512 residues are unoccupied",
        ),
        cell(
            "delta2048-n128-ears-failure-free",
            RunSpec(algorithm="ears", n=128, f=0, d=2, delta=2048, seed=0),
            sparse=True,
            min_speedup=3.0,
            note="delta >> n: 15/16 of steps are empty",
        ),
        cell(
            "auto-rrw64-n128-ears-failure-free",
            RunSpec(algorithm="ears", n=128, f=0, d=2, delta=64, seed=0),
            sparse=False,
            min_speedup=0.95,
            engine="auto",
            note="the dense control under auto (the default engine): "
                 "parity with stepwise is the gate",
        ),
        cell(
            "auto-rrw64-n128-ears-wave-2-survivors",
            RunSpec(algorithm="ears", n=128, f=126, d=2, delta=64, seed=0),
            sparse=True,
            min_speedup=5.0,
            adversary=two_survivor_wave(128, 64, 2, seed=0),
            engine="auto",
            note="the headline sparse cell under auto",
        ),
        cell(
            "auto-delta1024-n128-ears-failure-free",
            RunSpec(algorithm="ears", n=128, f=0, d=2, delta=1024, seed=0),
            sparse=True,
            min_speedup=3.0,
            engine="auto",
            note="failure-free delta >> n on the default engine: every "
                 "window opens with 128 busy steps, then 896 empty ones",
        ),
    ]


def quick_cells():
    return [
        cell(
            "quick-rrw32-n32-ears-failure-free",
            RunSpec(algorithm="ears", n=32, f=0, d=2, delta=32, seed=0),
            sparse=False,
            note="control (dense)",
        ),
        cell(
            "quick-rrw32-n32-ears-wave-2-survivors",
            RunSpec(algorithm="ears", n=32, f=30, d=2, delta=32, seed=0),
            sparse=True,
            min_speedup=1.0,
            adversary=two_survivor_wave(32, 32, 2, seed=0),
            note="shrunken crash-wave sparse cell; CI gate: leap is never "
                 "slower here",
        ),
        cell(
            "quick-delta256-n32-ears-failure-free",
            RunSpec(algorithm="ears", n=32, f=0, d=2, delta=256, seed=0),
            sparse=True,
            min_speedup=1.0,
            note="shrunken delta >> n sparse cell",
        ),
        cell(
            "quick-auto-rrw32-n32-ears-failure-free",
            RunSpec(algorithm="ears", n=32, f=0, d=2, delta=32, seed=0),
            sparse=False,
            min_speedup=0.7,
            engine="auto",
            note="CI gate: auto stays near stepwise on the dense control; "
                 "the run is so short (~15ms) that timer noise dominates, "
                 "so the floor is loose here — the full run gates real "
                 "parity at 0.95x",
        ),
        cell(
            "quick-auto-delta256-n32-ears-failure-free",
            RunSpec(algorithm="ears", n=32, f=0, d=2, delta=256, seed=0),
            sparse=True,
            min_speedup=1.0,
            engine="auto",
            note="CI gate: auto keeps the sparse-cell leap win",
        ),
        cell(
            "quick-auto-delta576-n72-ears-failure-free",
            RunSpec(algorithm="ears", n=72, f=0, d=2, delta=576, seed=0),
            sparse=True,
            min_speedup=2.0,
            engine="auto",
            note="CI gate: a 72-step busy prefix per window (longer than "
                 "the former 64-step probe) must not cost the leap win",
        ),
    ]


def fingerprint(run):
    return {
        "completed": run.completed,
        "reason": run.reason,
        "completion_time": run.completion_time,
        "gathering_time": run.gathering_time,
        "messages": run.messages,
        "realized_d": run.realized_d,
        "realized_delta": run.realized_delta,
    }


def time_engine(spec, engine, adversary_factory, repeats):
    """Best-of-``repeats`` wall clock plus the (identical) run fingerprint."""
    best, prints = None, []
    for _ in range(repeats):
        kwargs = {}
        if adversary_factory is not None:
            kwargs["adversary"] = adversary_factory()
        start = time.perf_counter()
        run = execute(spec.replace(engine=engine), **kwargs)
        wall = time.perf_counter() - start
        best = wall if best is None else min(best, wall)
        prints.append(fingerprint(run))
    for other in prints[1:]:
        if other != prints[0]:
            raise AssertionError(
                f"non-deterministic run under engine={engine}: "
                f"{other} != {prints[0]}"
            )
    return best, prints[0]


def run_cell(spec_cell, repeats):
    spec = spec_cell["spec"]
    engine = spec_cell["engine"]
    stepwise_s, ref = time_engine(
        spec, "stepwise", spec_cell["adversary"], repeats
    )
    fast_s, got = time_engine(spec, engine, spec_cell["adversary"], repeats)
    if got != ref:
        raise AssertionError(
            f"[{spec_cell['id']}] engines diverged:\n"
            f"  stepwise: {ref}\n  {engine}: {got}"
        )
    speedup = stepwise_s / fast_s if fast_s > 0 else float("inf")
    return {
        "id": spec_cell["id"],
        "note": spec_cell["note"],
        "n": spec.n,
        "f": spec.resolved_f,
        "d": spec.d,
        "delta": spec.delta,
        "algorithm": spec.algorithm,
        "engine": engine,
        "sparse": spec_cell["sparse"],
        "min_speedup": spec_cell["min_speedup"],
        "stepwise_s": round(stepwise_s, 4),
        "leap_s": round(fast_s, 4),
        "speedup": round(speedup, 2),
        "result": ref,
    }


def earlier_runs(path, quick):
    """The trajectory already in ``path`` (same cell set only)."""
    try:
        with open(path, encoding="utf-8") as handle:
            previous = json.load(handle)
    except (OSError, ValueError):
        return []
    if previous.get("quick") != quick:
        return []
    return previous.get("trajectory", [])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="shrunken cells for CI (seconds, gate: leap never slower)",
    )
    parser.add_argument(
        "--out", default="BENCH_engine_leap.json",
        help="output JSON path (default: %(default)s)",
    )
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="wall-clock repeats per engine (default: 3, quick: 2)",
    )
    parser.add_argument(
        "--no-gate", action="store_true",
        help="record speedups without enforcing the per-cell floors",
    )
    parser.add_argument(
        "--label", default="unlabelled",
        help="name of this run in the output's trajectory (e.g. the "
             "commit measured); earlier entries of --out are kept",
    )
    args = parser.parse_args(argv)
    repeats = args.repeats or (2 if args.quick else 3)
    cells = quick_cells() if args.quick else full_cells()

    rows, failures = [], []
    for spec_cell in cells:
        row = run_cell(spec_cell, repeats)
        rows.append(row)
        status = ""
        floor = row["min_speedup"]
        if floor is not None and not args.no_gate:
            if row["speedup"] < floor:
                failures.append(
                    f"{row['id']}: speedup {row['speedup']}x is below the "
                    f"floor {floor}x"
                )
                status = "  [GATE FAILED]"
            else:
                status = f"  [>= {floor}x ok]"
        print(
            f"{row['id']}: stepwise {row['stepwise_s']}s, "
            f"{row['engine']} {row['leap_s']}s -> {row['speedup']}x{status}"
        )

    report = {
        "benchmark": "engine_leap",
        "quick": args.quick,
        "repeats": repeats,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cells": rows,
        "trajectory": earlier_runs(args.out, args.quick) + [{
            "label": args.label,
            "cells": {
                row["id"]: {key: row[key]
                            for key in ("stepwise_s", "leap_s", "speedup")}
                for row in rows
            },
        }],
    }
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.out}")

    if failures:
        print("speedup gates FAILED:", file=sys.stderr)
        for line in failures:
            print(f"  {line}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
