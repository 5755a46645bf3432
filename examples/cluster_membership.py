#!/usr/bin/env python3
"""Cluster membership dissemination over EARS gossip.

The scenario the paper's introduction motivates (database consistency,
failure detection, group membership): every node of a cluster holds a local
fact — here its host record — and all nodes must learn all records despite
crashes, message delays and scheduling skew, *and then stop gossiping* so
the network goes quiet.

The demo runs EARS with per-node payloads under the "flaky" scenario (mild
asynchrony plus f early crashes; a scenario is spec data, a (d, δ, crash
plan) row of ``repro.spec.registry.SCENARIOS``) and prints the membership table every
surviving node converged to, along with what the protocol cost. It then
replays the cluster through a correlated failure, a whole rack lost at
once, written as an explicit crash plan.

Run:  python examples/cluster_membership.py
"""

from repro import RunSpec, execute, run_gossip
from repro.adversary import crash_at
from repro.analysis import render_table
from repro.spec.registry import SCENARIOS

N, F, SEED = 48, 12, 11


def host_record(pid: int) -> dict:
    """The rumor payload: what each node knows only about itself."""
    return {
        "host": f"node-{pid:02d}.rack{pid % 4}.example",
        "port": 7000 + pid,
        "epoch": 3,
    }


def main() -> None:
    run = execute(
        RunSpec(algorithm="ears", n=N, f=F, seed=SEED, scenario="flaky"),
        payloads=[host_record(pid) for pid in range(N)],
    )
    assert run.completed, f"gossip did not complete: {run.reason}"

    survivors = sorted(run.sim.alive_pids)
    view = run.sim.algorithm(survivors[0]).rumors

    # Every survivor must hold the record of every other survivor, and all
    # views agree on the surviving membership.
    for pid in survivors:
        rumors = run.sim.algorithm(pid).rumors
        assert all(peer in rumors for peer in survivors)

    print(f"cluster of {N} nodes, {run.crashes} crashed during the run "
          f"(scenario: {SCENARIOS['flaky']['description']})")
    print(f"gossip completed at step {run.completion_time} using "
          f"{run.messages} messages "
          f"({run.messages_by_kind.get('shutdown', 0)} of them shut-down)")
    print()
    rows = [
        [pid, view.value_of(pid)["host"], view.value_of(pid)["port"],
         "up" if pid in run.sim.alive_pids else "crashed"]
        for pid in sorted(view)
    ]
    print(render_table(["pid", "host", "port", "status"], rows[:12],
                       title="converged membership view (first 12 rows)"))
    print(f"... {len(rows) - 12} more rows; every surviving node holds an "
          f"identical view of the survivors.")

    # A correlated failure: rack 0 (every fourth node) loses power at
    # step 10. The plan is fixed before the run, like any oblivious one.
    rack = [pid for pid in range(N) if pid % 4 == 0]
    outage = run_gossip("ears", n=N, f=F, seed=SEED,
                        crashes=crash_at({10: rack}),
                        payloads=[host_record(pid) for pid in range(N)])
    assert outage.completed, f"gossip did not complete: {outage.reason}"
    print()
    print(f"rack 0 ({len(rack)} nodes) lost at step 10: gossip completed "
          f"at step {outage.completion_time} using {outage.messages} "
          f"messages")


if __name__ == "__main__":
    main()
