"""Theorem 1 as spec data: a ``lower-bound`` adversary spec runs the
construction, its record is the report, and every field the construction
would ignore is refused by name."""

import pytest

from repro.adversary.lower_bound import run_lower_bound
from repro.experiments import (
    PORTFOLIO,
    theorem1_rows,
    theorem1_specs,
)
from repro.sim.errors import ConfigurationError
from repro.spec import build, execute
from repro.store import execute_batch, metrics_of, open_store

#: The ``theorem1-fork`` Case 2 cell: sparse gossip isolated at n = 128.
SPARSE_CASE_2 = dict(n=128, f=32, seeds=[0], algorithms=["sparse"],
                     samples=3, phase1_cap=1200, promiscuity_factor=8.0)
SMALL = dict(n=32, f=8, seeds=[0], samples=2, phase1_cap=300)
SPEC = theorem1_specs(algorithms=["trivial"], **SMALL)[0]


def _oracle(spec):
    """The reference: ``run_lower_bound`` on the portfolio factory."""
    knobs = {key: value for key, value in spec.adversary.items()
             if key != "name"}
    return metrics_of(run_lower_bound(
        PORTFOLIO[spec.algorithm], n=spec.n, f=spec.f, seed=spec.seed,
        **knobs))


@pytest.mark.parametrize("spec", [
    *theorem1_specs(n=32, f=8, seeds=[0]),
    *theorem1_specs(**SPARSE_CASE_2),
], ids=lambda spec: f"{spec.algorithm}-n{spec.n}")
def test_spec_path_equals_run_lower_bound(spec):
    [record] = execute_batch([spec])
    assert record["metrics"] == _oracle(spec)


def test_engine_is_not_identity_and_changes_nothing():
    batch = SPEC.replace(engine="batch")
    assert batch.spec_hash == SPEC.spec_hash
    assert metrics_of(execute(batch)) == metrics_of(execute(SPEC))


@pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
def test_fresh_record_equals_its_stored_round_trip(tmp_path, backend):
    specs = theorem1_specs(algorithms=["trivial", "sparse"], **SMALL)
    fresh = execute_batch(specs)
    path = str(tmp_path / f"runs.{backend}")
    assert execute_batch(specs, store=open_store(path)) == fresh
    reopened = open_store(path)
    assert [reopened.get(spec.spec_hash) for spec in specs] == fresh


@pytest.mark.parametrize("changes", [
    {"d": 2}, {"delta": 2}, {"crashes": 2}, {"topology": "ring"},
    {"majority": True}, {"measure_bits": True}, {"max_steps": 100},
    {"check_invariants": True}, {"values": (0,) * 32},
    {"kind": "consensus", "algorithm": "ears"},
], ids=lambda changes: next(iter(changes)))
def test_ignored_field_is_refused_by_name(changes):
    name = next(iter(changes))
    with pytest.raises(ConfigurationError,
                       match=rf"cannot honor \['{name}'\]"):
        execute(SPEC.replace(**changes))


@pytest.mark.parametrize("override", [
    {"observers": (object(),)}, {"payloads": list(range(32))},
    {"adversary": object()},
], ids=lambda override: next(iter(override)))
def test_runtime_override_is_refused_by_name(override):
    name = next(iter(override))
    with pytest.raises(ConfigurationError,
                       match=rf"cannot honor \['{name}'\]"):
        execute(SPEC, **override)


def test_build_is_refused_by_name():
    with pytest.raises(ConfigurationError, match="'lower-bound' spec"):
        build(SPEC)


@pytest.mark.parametrize("knob", ["silence_threshold", "sample"])
def test_unknown_knob_is_refused(knob):
    spec = SPEC.replace(adversary={"name": "lower-bound", knob: 1})
    with pytest.raises(ConfigurationError,
                       match="bad knobs for adversary 'lower-bound'"):
        execute(spec)


def test_the_adversary_forces_each_strategy_into_its_case():
    """The claim behind Figure 1, through the spec path: message-heavy
    strategies pay in messages, ears and uniform in time, and sparse
    gossip is isolated (Case 2) — with every bound met."""
    records = execute_batch(
        theorem1_specs(n=64, f=16, seeds=[0])
        + theorem1_specs(**SPARSE_CASE_2))
    rows = theorem1_rows(records[:-1]) + theorem1_rows(records[-1:])
    assert {row.algorithm: dict(row.cases) for row in rows} == {
        "trivial": {"message-blowup": 1},
        "ears": {"slow-quiesce": 1},
        "sears": {"message-blowup": 1},
        "tears": {"message-blowup": 1},
        "uniform": {"non-quiescent": 1},
        "sparse": {"isolation": 1},
    }
    assert rows[-1].n == 128 and rows[-1].isolation_success_rate == 1.0
    assert all(row.bound_satisfied for row in rows)


