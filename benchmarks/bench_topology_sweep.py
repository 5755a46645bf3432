"""Benchmark TOPOLOGY-SWEEP: spread-time exponents across topologies.

Runs the Panagiotou–Speidel asynchronous push–pull n-sweep on the
complete graph, supercritical G(n, p) and the ring and fits completion
time ≈ c · n^e per family via the shared fitting machinery. The measures
are simulated statistics, the same on every host; the sweep's wall clock
rides along, ungated.

The gates encode the literature's ordering, not exact constants:

* every sweep cell completes (the families ship connected defaults);
* the ring's fitted exponent is clearly linear-ish (≥ 0.6) — one
  contact moves the rumor a constant distance, so spread is Θ(n);
* G(n, p) above the connectivity threshold and the complete graph stay
  clearly sublinear (≤ 0.45) — Θ(log n) spread (Panagiotou & Speidel,
  arXiv:1608.01766);
* the ring exponent exceeds the G(n, p) exponent by ≥ 0.3, the
  separation the topology layer exists to demonstrate.

``tests/test_topology.py`` asserts the same sweep against the same three
constants in tier-1.
"""

from __future__ import annotations

import _harness as harness

from repro.workloads.topology import sweep_topology_gossip

BENCHMARK = "topology_sweep"

#: Exponent gates: the ring must look linear, the expander-like families
#: sublinear, and the gap between them must be unmistakable.
RING_MIN_EXPONENT = 0.6
SUBLINEAR_MAX_EXPONENT = 0.45
MIN_SEPARATION = 0.3

ALGORITHM = "ps-push-pull"
TOPOLOGIES = ("complete", "gnp", "ring")
#: Keyed by ``quick``.
NS = {False: [16, 32, 64, 128], True: [16, 32, 64]}
SEEDS = {False: 3, True: 2}


def run_sweep(quick):
    return sweep_topology_gossip(
        ALGORITHM, topologies=TOPOLOGIES, ns=NS[quick],
        seeds=range(SEEDS[quick]))


def shape(curves):
    """The fitted shape of a sweep as flat measures."""
    measures = {}
    for curve in curves:
        if getattr(curve.raw_fit, "skipped", False):
            raise AssertionError(
                f"{curve.topology}: fit skipped ({curve.raw_fit.reason})")
        measures.update({
            f"{curve.topology}_exponent": round(curve.raw_fit.exponent, 4),
            f"{curve.topology}_r_squared": round(curve.raw_fit.r_squared, 4),
            f"{curve.topology}_deloged_exponent": round(
                curve.deloged_fit.exponent, 4),
        })
    measures["ring_minus_gnp"] = round(
        measures["ring_exponent"] - measures["gnp_exponent"], 4)
    measures["min_completion_rate"] = min(
        rate for curve in curves for rate in curve.completion_rates)
    return measures


def cells(quick):
    def measure(repeats):
        sweep_s, measures = harness.best_of(
            lambda: shape(run_sweep(quick)), repeats)
        return {**measures, "sweep_s": harness.seconds(sweep_s)}

    return [harness.Cell(
        "ps-push-pull-complete-gnp-ring",
        "failure-free n-sweep per family, completion time fitted to c·n^e",
        {"algorithm": ALGORITHM, "topologies": list(TOPOLOGIES),
         "ns": NS[quick], "seeds": SEEDS[quick]},
        measure,
        (
            harness.gate("min_completion_rate", "==", 1.0),
            harness.gate("ring_exponent", ">=", RING_MIN_EXPONENT),
            harness.gate("gnp_exponent", "<=", SUBLINEAR_MAX_EXPONENT),
            harness.gate("complete_exponent", "<=", SUBLINEAR_MAX_EXPONENT),
            harness.gate("ring_minus_gnp", ">=", MIN_SEPARATION),
        ),
    )]


if __name__ == "__main__":
    raise SystemExit(harness.main(__name__))
