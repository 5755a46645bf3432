"""Canonical seed-pinned cells: capture script + shared cell runners.

tests/test_seed_regression.py imports the *_cell functions to recompute
each pinned execution; running this file as a script re-captures the full
pin set as JSON on stdout (for deliberate regeneration after an intentional
semantic change):

    PYTHONPATH=src python -m tests._capture_canonical > pins.json
"""

import json
import sys

from repro.adversary.adaptive import TargetedDelayAdversary
from repro.adversary.lower_bound import run_lower_bound
from repro.api import run_gossip
from repro.core.base import make_processes
from repro.experiments.theorem1 import PORTFOLIO
from repro.sim.engine import Simulation
from repro.sim.monitor import GossipCompletionMonitor
from repro.spec.registry import GOSSIP_ALGORITHMS
from tests.plans import CrashEagerSendersAdversary


def oblivious_cell(algorithm, seed):
    run = run_gossip(algorithm, n=32, f=8, d=2, delta=2, seed=seed,
                     crashes=4)
    return {
        "completed": run.completed,
        "completion_time": run.completion_time,
        "messages": run.messages,
        "realized_d": run.realized_d,
        "realized_delta": run.realized_delta,
        "crashes": run.crashes,
    }


def adaptive_cell(algorithm, seed, kind):
    n, f = 32, 8
    if kind == "targeted-delay":
        adversary = TargetedDelayAdversary(victims={0, 1, 2}, d=4)
    else:
        adversary = CrashEagerSendersAdversary(budget=4)
    cls = GOSSIP_ALGORITHMS[algorithm]
    sim = Simulation(
        n=n, f=f,
        algorithms=make_processes(n, f, cls),
        adversary=adversary,
        monitor=GossipCompletionMonitor(majority=algorithm == "tears"),
        seed=seed,
    )
    result = sim.run(max_steps=20_000)
    return {
        "completed": result.completed,
        "completion_time": result.completion_time,
        "messages": result.messages,
        "realized_d": result.metrics["realized_d"],
        "realized_delta": result.metrics["realized_delta"],
        "crashes": result.metrics["crashes"],
    }


def batch_cell(algorithm, seed):
    """Vectorized-engine pin: same cell as :func:`oblivious_cell`, run on
    the batch engine's counter-based RNG substreams (numpy required)."""
    from repro.spec import RunSpec, execute

    run = execute(RunSpec(
        kind="gossip", algorithm=algorithm, n=32, f=8, d=2, delta=2,
        seed=seed, crashes=4, engine="batch",
    ))
    return {
        "completed": run.completed,
        "completion_time": run.completion_time,
        "messages": run.messages,
        "realized_d": run.realized_d,
        "realized_delta": run.realized_delta,
        "crashes": run.crashes,
    }


def lower_bound_cell(algorithm, seed):
    report = run_lower_bound(PORTFOLIO[algorithm], n=64, f=16, seed=seed,
                             samples=3, phase1_cap=1200)
    return {
        "case": report.case,
        "phase1_time": report.phase1_time,
        "measured_messages": report.measured_messages,
        "measured_time": report.measured_time,
        "crashes_used": report.crashes_used,
    }


def case2_cell(seed):
    """Sparse gossip at the size where the adversary isolates a pair: the
    pair and its crash count follow the first-send order of its counts."""
    report = run_lower_bound(PORTFOLIO["sparse"], n=128, f=32, seed=seed,
                             samples=3, promiscuity_factor=8)
    pair = report.isolation_pair
    return {
        "case": report.case,
        "isolation_pair": None if pair is None else list(pair),
        "isolation_success": report.isolation_success,
        "crashes_used": report.crashes_used,
        "cross_messages": report.details.get("cross_messages"),
    }


def main():
    out = {"oblivious": {}, "adaptive": {}, "lower_bound": {}, "case2": {}}
    for algorithm in sorted(GOSSIP_ALGORITHMS):
        for seed in (0, 1):
            out["oblivious"][f"{algorithm}/{seed}"] = oblivious_cell(
                algorithm, seed)
    for algorithm in ("ears", "tears", "trivial"):
        for seed in (0,):
            for kind in ("targeted-delay", "crash-eager"):
                out["adaptive"][f"{algorithm}/{kind}/{seed}"] = adaptive_cell(
                    algorithm, seed, kind)
    for algorithm in ("trivial", "ears", "sears", "tears", "sparse"):
        out["lower_bound"][f"{algorithm}/0"] = lower_bound_cell(algorithm, 0)
    for seed in range(4):
        out["case2"][f"sparse/{seed}"] = case2_cell(seed)
    out["batch"] = {}
    for algorithm in ("ears", "sears"):
        for seed in (0, 1):
            out["batch"][f"{algorithm}/{seed}"] = batch_cell(algorithm, seed)
    json.dump(out, sys.stdout, indent=1, sort_keys=True)


if __name__ == "__main__":
    main()
