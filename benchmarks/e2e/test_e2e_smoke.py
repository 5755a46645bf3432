"""Smoke test of the end-to-end benchmark at shrunken sizes.

    python -m pytest benchmarks/e2e -q

Not part of tier-1 (``testpaths`` is ``tests``). Every workload runs with
``--small``, untraced and traced, in well under 30 s together; what is
checked is the benchmark's plumbing — names, counts, digests, clean-up —
not any timing.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
RUN = os.path.join(HERE, "run.py")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    CONTRACT = json.load(_handle)
#: The workloads the driver runs; the benchmark knows more (``registry``).
GATED = {w["name"]: w["why"] for w in CONTRACT["workloads"]}


def run_benchmark(*flags, cwd=ROOT, script=RUN):
    return subprocess.run(
        [sys.executable, script, "--small", "--seconds", "0.1", *flags],
        capture_output=True, text=True, timeout=120, cwd=cwd,
    )


def results_of(tmp_path_factory, *flags):
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    proc = run_benchmark("--json", str(out), *flags)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    with open(out, encoding="utf-8") as handle:
        return json.load(handle)["workloads"]


@pytest.fixture(scope="module")
def registry():
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        from workloads import WORKLOADS
    finally:
        del sys.path[:2]
    return WORKLOADS


@pytest.fixture(scope="module")
def untraced(tmp_path_factory):
    return results_of(tmp_path_factory)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    return results_of(tmp_path_factory, "--traced")


def test_names_are_wellformed_and_unique(registry):
    names = list(registry) + [
        m["name"] for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]
    ]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)
    # BENCHMARK.json names a subset of the workloads, with their reasons.
    assert GATED == {name: registry[name].why for name in GATED}


def test_round_cost_takes_each_call_at_its_fastest():
    sys.path.insert(0, HERE)
    try:
        from run import round_cost
    finally:
        sys.path.remove(HERE)
    rounds = [{"wall_s": [1.0, 5.0]}, {"wall_s": [3.0, 2.0]},
              {"wall_s": [2.0, 4.0]}]
    assert round_cost(rounds, "wall_s") == 1.0 + 2.0


def test_untraced_run_emits_exactly_the_end_to_end_metrics(
        untraced, registry):
    assert sorted(untraced) == sorted(registry)
    wanted = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    for name, result in untraced.items():
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == wanted, name
        assert all(v["value"] > 0 for v in result["metrics"].values()), name
        assert result["failed"] == 0 and result["attempted"] > 0, name
        # Every timed round timed every call of the round.
        walls = result["raw"]["wall_s"]
        assert len(walls) >= 3 and len({len(calls) for calls in walls}) == 1


def test_traced_run_emits_exactly_the_per_layer_metrics(traced, registry):
    assert sorted(traced) == sorted(registry)
    wanted = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    for name, result in traced.items():
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == wanted, name
        # Traced statistics are checked against the untraced rounds of
        # the same launch: no failure means the digests were identical.
        assert result["failed"] == 0, (name, result["failures"])
        assert result["metrics"]["sim.engine.self_s"]["value"] >= 0, name


def test_counts_repeat_exactly_across_traced_rounds(traced):
    counts = [m["name"] for m in CONTRACT["per_layer"]
              if m["unit"] == "count"]
    for name, result in traced.items():
        first, second = result["raw"]["layers"]
        for metric in counts:
            assert first.get(metric) == second.get(metric), (name, metric)


def test_predicted_layer_shapes_hold_even_at_smoke_size(traced):
    for name, result in traced.items():
        forks = result["metrics"]["sim.engine.fork_calls"]["value"]
        assert (forks > 0) == (name == "theorem1-fork"), name
    eligible = traced["campaign-vectorized"]["metrics"][
        "sim.batch.eligible_frac"]["value"]
    assert 0 < eligible < 1


def test_single_workload_run_ends_with_the_contract_line():
    proc = run_benchmark("--workload", "dense-fanout", "--seed", "3",
                         "--trace", "0")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == {m["name"] for m in CONTRACT["end_to_end"]}


def test_exits_nonzero_without_a_result_where_the_program_is_missing(
        tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    bare = tmp_path / "benchmarks" / "e2e"
    shutil.copytree(HERE, bare, ignore=shutil.ignore_patterns(
        ".work", "__pycache__"))
    proc = run_benchmark("--workload", "dense-fanout", cwd=tmp_path,
                         script=str(bare / "run.py"))
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_traced_round_matches_untraced_and_leaves_no_delegate(
        tmp_path, registry):
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        from repro.sim.engine import Simulation
        from repro.sim.metrics import Metrics
        from repro.sim.network import Network
        from tracing import Tracer
        from workloads import digest
    finally:
        del sys.path[:2]

    watched = [(Simulation, "fork"), (Simulation, "snapshot"),
               (Simulation, "restore"), (Network, "enqueue"),
               (Network, "collect"), (Metrics, "record_send")]
    before = [vars(cls)[attr] for cls, attr in watched]
    for name, make in registry.items():
        workload = make(7, True, str(tmp_path))
        plain = [digest(s) for s in workload.round(1)]
        tracer = Tracer()
        with tracer.scope():
            tracer.install_state_copies(Simulation)
            assert Simulation.fork.__name__ == "delegate"
            under = [digest(s) for s in
                     workload.traced_round(1, tracer, Counter())]
        assert under == plain, name
        assert len(plain) == workload.trials, name
        assert tracer.take(), name
        assert [vars(cls)[attr] for cls, attr in watched] == before, name
