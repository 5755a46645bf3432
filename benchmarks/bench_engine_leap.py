"""Benchmark ENGINE-LEAP: the event-driven time-leap fast path.

Measures wall-clock for the same runs under ``engine="stepwise"`` (the
reference loop) and a fast engine (``"leap"`` or ``"auto"``, per cell)
and requires the results to be bit-identical (an exact check: it raises).

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
stepwise, so the dense controls gate on the harness's parity constant;
every sparse cell gates on order — the fast engine is not slower than
stepwise — including the failure-free ``delta >> n`` cells whose first
128 steps of every window are busy, which the former density probe
mistook for a dense run. The headline ratios are in the report's
trajectory, not in a gate: they compare two loops of one commit and fall
whenever the stepwise loop gets cheaper (see ``_harness``).
"""

from __future__ import annotations

from functools import partial

import _harness as harness

from repro.adversary.crash_plans import wave_crashes
from repro.adversary.delay_plans import HashDelay
from repro.adversary.oblivious import ObliviousAdversary
from repro.sim.scheduler import RoundRobinWindows
from repro.spec.builder import execute
from repro.spec.runspec import RunSpec

BENCHMARK = "engine_leap"


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


def cell(cell_id, spec, *, quick, sparse, adversary=None, engine="leap",
         note=""):
    """Stepwise against ``engine`` on one spec: order on a sparse cell,
    parity on a dense control. ``adversary`` is a factory, because an
    adversary is consumed by the run it drives."""

    def timed(name, repeats):
        return harness.best_of(
            lambda built: harness.fingerprint(
                execute(spec.replace(engine=name), adversary=built)),
            repeats,
            fresh=adversary or (lambda: None),
        )

    def measure(repeats):
        stepwise_s, reference = timed("stepwise", repeats)
        fast_s, got = timed(engine, repeats)
        harness.require_equal(
            reference, got, f"[{cell_id}] stepwise and {engine} diverged")
        return {
            **harness.versus("stepwise_s", stepwise_s, "leap_s", fast_s),
            "completion_time": reference["completion_time"],
            "messages": reference["messages"],
        }

    floor = harness.ORDER_FLOOR if sparse else harness.PARITY_FLOOR[quick]
    return harness.Cell(
        cell_id, note,
        {"algorithm": spec.algorithm, "n": spec.n, "f": spec.resolved_f,
         "d": spec.d, "delta": spec.delta, "engine": engine,
         "sparse": sparse},
        measure,
        (harness.gate("speedup", ">=", floor),),
    )


def ears(n, f, delta):
    return RunSpec(algorithm="ears", n=n, f=f, d=2, delta=delta, seed=0)


def cells(quick):
    make = partial(cell, quick=quick)
    if quick:
        return [
            make("quick-rrw32-n32-ears-failure-free", ears(32, 0, 32),
                 sparse=False,
                 note="control (dense); the run is so short (~10ms) that "
                      "timer noise dominates, so the quick parity constant "
                      "is loose — the full run gates real parity"),
            make("quick-rrw32-n32-ears-wave-2-survivors", ears(32, 30, 32),
                 sparse=True, adversary=two_survivor_wave(32, 32, 2, seed=0),
                 note="shrunken crash-wave sparse cell; CI gate: leap is "
                      "never slower here"),
            make("quick-delta256-n32-ears-failure-free", ears(32, 0, 256),
                 sparse=True,
                 note="shrunken delta >> n sparse cell"),
            make("quick-auto-rrw32-n32-ears-failure-free", ears(32, 0, 32),
                 sparse=False, engine="auto",
                 note="CI gate: auto stays near stepwise on the dense "
                      "control"),
            make("quick-auto-delta256-n32-ears-failure-free",
                 ears(32, 0, 256), sparse=True, engine="auto",
                 note="CI gate: auto keeps the sparse-cell leap win"),
            make("quick-auto-delta576-n72-ears-failure-free",
                 ears(72, 0, 576), sparse=True, engine="auto",
                 note="CI gate: a 72-step busy prefix per window (longer "
                      "than the former 64-step probe) must not cost the "
                      "leap win"),
        ]
    wave = two_survivor_wave(128, 64, 2, seed=0)
    return [
        make("rrw64-n128-ears-failure-free", ears(128, 0, 64), sparse=False,
             note="control: dense residue map (2 pids/step), nothing to "
                  "skip — parity is the gate"),
        make("rrw64-n128-ears-wave-2-survivors", ears(128, 126, 64),
             sparse=True, adversary=wave,
             note="126 of 128 crash at t=1; 62/64 of steps are empty "
                  "(Theorem 4's n/(n-f) regime)"),
        make("delta512-n128-ears-failure-free", ears(128, 0, 512),
             sparse=True,
             note="delta > n: 384/512 residues are unoccupied"),
        make("delta2048-n128-ears-failure-free", ears(128, 0, 2048),
             sparse=True,
             note="delta >> n: 15/16 of steps are empty"),
        make("auto-rrw64-n128-ears-failure-free", ears(128, 0, 64),
             sparse=False, engine="auto",
             note="the dense control under auto (the default engine): "
                  "parity with stepwise is the gate"),
        make("auto-rrw64-n128-ears-wave-2-survivors", ears(128, 126, 64),
             sparse=True, adversary=wave, engine="auto",
             note="the headline sparse cell under auto"),
        make("auto-delta1024-n128-ears-failure-free", ears(128, 0, 1024),
             sparse=True, engine="auto",
             note="failure-free delta >> n on the default engine: every "
                  "window opens with 128 busy steps, then 896 empty ones"),
    ]


if __name__ == "__main__":
    raise SystemExit(harness.main(__name__))
