"""Seed-for-seed regression pins for canonical executions.

These numbers were captured from the engine before the execution-substrate
refactor (observer bus + O(state) snapshots) and must never drift: every
run below is a deterministic function of its parameters, so any change to
these values means the refactor altered execution semantics, not just
structure. Regenerate deliberately with tests/_capture_canonical.py after
an *intentional* semantic change, and say so in the commit message.

Covers each gossip algorithm under the oblivious uniform (d, delta)
adversary (two seeds), the adaptive targeted-delay and crash-eager
adversaries, and the Theorem 1 lower-bound adversary (whose Phase B is the
fork/snapshot hot path), its Case 2 isolation included.
"""

import pytest

from tests._capture_canonical import (
    adaptive_cell,
    batch_cell,
    case2_cell,
    lower_bound_cell,
    oblivious_cell,
)

CANONICAL = {
    "batch": {
        "ears/0": {
            "completed": True,
            "completion_time": 66,
            "crashes": 4,
            "messages": 777,
            "realized_d": 2,
            "realized_delta": 2
        },
        "ears/1": {
            "completed": True,
            "completion_time": 71,
            "crashes": 4,
            "messages": 856,
            "realized_d": 2,
            "realized_delta": 2
        },
        "sears/0": {
            "completed": True,
            "completion_time": 12,
            "crashes": 1,
            "messages": 2028,
            "realized_d": 2,
            "realized_delta": 2
        },
        "sears/1": {
            "completed": True,
            "completion_time": 12,
            "crashes": 2,
            "messages": 1990,
            "realized_d": 2,
            "realized_delta": 2
        }
    },
    "adaptive": {
        "ears/crash-eager/0": {
            "completed": True,
            "completion_time": 31,
            "crashes": 4,
            "messages": 752,
            "realized_d": 1,
            "realized_delta": 1
        },
        "ears/targeted-delay/0": {
            "completed": True,
            "completion_time": 35,
            "crashes": 0,
            "messages": 887,
            "realized_d": 4,
            "realized_delta": 1
        },
        "tears/crash-eager/0": {
            "completed": True,
            "completion_time": 3,
            "crashes": 4,
            "messages": 1860,
            "realized_d": 1,
            "realized_delta": 1
        },
        "tears/targeted-delay/0": {
            "completed": True,
            "completion_time": 9,
            "crashes": 0,
            "messages": 2883,
            "realized_d": 4,
            "realized_delta": 1
        },
        "trivial/crash-eager/0": {
            "completed": True,
            "completion_time": 2,
            "crashes": 4,
            "messages": 992,
            "realized_d": 1,
            "realized_delta": 1
        },
        "trivial/targeted-delay/0": {
            "completed": True,
            "completion_time": 5,
            "crashes": 0,
            "messages": 992,
            "realized_d": 4,
            "realized_delta": 1
        }
    },
    "case2": {
        "sparse/0": {
            "case": "isolation",
            "crashes_used": 15,
            "cross_messages": 0,
            "isolation_pair": [112, 113],
            "isolation_success": True
        },
        "sparse/1": {
            "case": "isolation",
            "crashes_used": 16,
            "cross_messages": 0,
            "isolation_pair": [112, 113],
            "isolation_success": True
        },
        "sparse/2": {
            "case": "slow-quiesce",
            "crashes_used": 16,
            "cross_messages": None,
            "isolation_pair": None,
            "isolation_success": None
        },
        "sparse/3": {
            "case": "isolation",
            "crashes_used": 16,
            "cross_messages": 0,
            "isolation_pair": [112, 113],
            "isolation_success": True
        }
    },
    "lower_bound": {
        "ears/0": {
            "case": "slow-quiesce",
            "crashes_used": 8,
            "measured_messages": None,
            "measured_time": 38,
            "phase1_time": 38
        },
        "sears/0": {
            "case": "message-blowup",
            "crashes_used": 0,
            "measured_messages": 1654,
            "measured_time": None,
            "phase1_time": 6
        },
        "sparse/0": {
            "case": "slow-quiesce",
            "crashes_used": 8,
            "measured_messages": None,
            "measured_time": 32,
            "phase1_time": 32
        },
        "tears/0": {
            "case": "message-blowup",
            "crashes_used": 0,
            "measured_messages": 1008,
            "measured_time": None,
            "phase1_time": 3
        },
        "trivial/0": {
            "case": "message-blowup",
            "crashes_used": 0,
            "measured_messages": 504,
            "measured_time": None,
            "phase1_time": 2
        }
    },
    "oblivious": {
        "adaptive-fanout/0": {
            "completed": True,
            "completion_time": 28,
            "crashes": 4,
            "messages": 801,
            "realized_d": 2,
            "realized_delta": 2
        },
        "adaptive-fanout/1": {
            "completed": True,
            "completion_time": 29,
            "crashes": 4,
            "messages": 830,
            "realized_d": 2,
            "realized_delta": 2
        },
        "ears/0": {
            "completed": True,
            "completion_time": 61,
            "crashes": 4,
            "messages": 762,
            "realized_d": 2,
            "realized_delta": 2
        },
        "ears/1": {
            "completed": True,
            "completion_time": 62,
            "crashes": 4,
            "messages": 773,
            "realized_d": 2,
            "realized_delta": 2
        },
        "push-pull/0": {
            "completed": True,
            "completion_time": 353,
            "crashes": 4,
            "messages": 5702,
            "realized_d": 2,
            "realized_delta": 2
        },
        "push-pull/1": {
            "completed": True,
            "completion_time": 383,
            "crashes": 4,
            "messages": 5304,
            "realized_d": 2,
            "realized_delta": 2
        },
        "sears/0": {
            "completed": True,
            "completion_time": 13,
            "crashes": 1,
            "messages": 2043,
            "realized_d": 2,
            "realized_delta": 2
        },
        "sears/1": {
            "completed": True,
            "completion_time": 13,
            "crashes": 3,
            "messages": 2065,
            "realized_d": 2,
            "realized_delta": 2
        },
        "sparse/0": {
            "completed": False,
            "completion_time": None,
            "crashes": 4,
            "messages": 260,
            "realized_d": 2,
            "realized_delta": 2
        },
        "sparse/1": {
            "completed": False,
            "completion_time": None,
            "crashes": 4,
            "messages": 259,
            "realized_d": 2,
            "realized_delta": 2
        },
        "tears/0": {
            "completed": True,
            "completion_time": 8,
            "crashes": 1,
            "messages": 2914,
            "realized_d": 2,
            "realized_delta": 2
        },
        "tears/1": {
            "completed": True,
            "completion_time": 8,
            "crashes": 2,
            "messages": 2914,
            "realized_d": 2,
            "realized_delta": 2
        },
        "trivial/0": {
            "completed": True,
            "completion_time": 5,
            "crashes": 1,
            "messages": 992,
            "realized_d": 2,
            "realized_delta": 2
        },
        "trivial/1": {
            "completed": True,
            "completion_time": 5,
            "crashes": 2,
            "messages": 992,
            "realized_d": 2,
            "realized_delta": 2
        },
        "uniform/0": {
            "completed": True,
            "completion_time": 24,
            "crashes": 4,
            "messages": 366,
            "realized_d": 2,
            "realized_delta": 2
        },
        "uniform/1": {
            "completed": True,
            "completion_time": 23,
            "crashes": 4,
            "messages": 338,
            "realized_d": 2,
            "realized_delta": 2
        }
    }
}

@pytest.mark.parametrize("key", sorted(CANONICAL["oblivious"]))
def test_oblivious_pins(key):
    algorithm, seed = key.rsplit("/", 1)
    assert oblivious_cell(algorithm, int(seed)) == CANONICAL["oblivious"][key]


@pytest.mark.parametrize("key", sorted(CANONICAL["adaptive"]))
def test_adaptive_pins(key):
    algorithm, kind, seed = key.split("/")
    assert (
        adaptive_cell(algorithm, int(seed), kind)
        == CANONICAL["adaptive"][key]
    )


# The batch engine's counter-based substreams are a *separate* sealed RNG
# discipline: these pins differ from the oblivious pins for the same cell
# by design (distributional equivalence is tested in
# tests/sim/test_batch_engine.py), but must be just as immovable.
@pytest.mark.parametrize("key", sorted(CANONICAL["batch"]))
def test_batch_engine_pins(key):
    pytest.importorskip("numpy")
    algorithm, seed = key.rsplit("/", 1)
    assert batch_cell(algorithm, int(seed)) == CANONICAL["batch"][key]


@pytest.mark.parametrize("key", sorted(CANONICAL["lower_bound"]))
def test_lower_bound_pins(key):
    algorithm, seed = key.rsplit("/", 1)
    assert (
        lower_bound_cell(algorithm, int(seed))
        == CANONICAL["lower_bound"][key]
    )


# Case 2 of the same adversary, sparse gossip at n = 128: which pair it
# isolates, and which S1 contacts it crashes, depend on its per-pair send
# counts and their first-send order.
@pytest.mark.parametrize("key", sorted(CANONICAL["case2"]))
def test_case2_pins(key):
    seed = key.rsplit("/", 1)[1]
    assert case2_cell(int(seed)) == CANONICAL["case2"][key]


# -- declarative-spec equivalence ----------------------------------------- #
# The RunSpec builder must reproduce the legacy entry points seed for seed:
# a spec run hitting the same pins as run_gossip proves the spec path is
# bit-identical, not merely statistically similar.

def spec_oblivious_cell(algorithm, seed):
    from repro.spec import RunSpec, execute

    run = execute(RunSpec(
        kind="gossip", algorithm=algorithm, n=32, f=8, d=2, delta=2,
        seed=seed, crashes=4,
    ))
    return {
        "completed": run.completed,
        "completion_time": run.completion_time,
        "messages": run.messages,
        "realized_d": run.realized_d,
        "realized_delta": run.realized_delta,
        "crashes": run.crashes,
    }


@pytest.mark.parametrize("key", sorted(CANONICAL["oblivious"]))
def test_spec_path_matches_oblivious_pins(key):
    algorithm, seed = key.rsplit("/", 1)
    assert (
        spec_oblivious_cell(algorithm, int(seed))
        == CANONICAL["oblivious"][key]
    )


@pytest.mark.parametrize("transport", ["all-to-all", "ears", "tears"])
def test_spec_path_matches_legacy_consensus(transport):
    from repro.consensus import run_consensus
    from repro.spec import RunSpec, execute

    spec_run = execute(RunSpec(
        kind="consensus", algorithm=transport, n=16, f=5, d=2, delta=2,
        seed=3, crashes=3,
    ))
    legacy = run_consensus(transport, n=16, f=5, d=2, delta=2, seed=3,
                           crashes=3)
    for attr in ("completed", "decision_time", "messages", "rounds_used",
                 "agreement", "validity", "decisions", "crashes"):
        assert getattr(spec_run, attr) == getattr(legacy, attr), attr
