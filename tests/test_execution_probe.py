"""The execution probe's hook sees pool workers: a function that only a
worker process runs is recorded (``tests/probe/``; the gate itself is a
CI step, not a tier-1 test), its smoke roots are the commands CI's smoke
steps run, and its verdict file is well formed (parsed, not run)."""

import importlib.util
import inspect
import os
import re
import subprocess
import sys
import textwrap

import repro
from repro.store import batch

from .conftest import ROOT

PROBE = os.path.join(ROOT, "tests", "probe")


def test_a_function_only_a_pool_worker_enters_is_recorded(tmp_path):
    record = tmp_path / "entered.txt"
    env = {**os.environ, "REPRO_PROBE_OUT": str(record),
           "PYTHONPATH": os.pathsep.join([
               PROBE, os.path.dirname(os.path.dirname(repro.__file__))])}
    code = textwrap.dedent("""
        from repro.experiments.pool import TrialPool
        from repro.spec import RunSpec
        from repro.store.batch import _spec_job

        specs = [RunSpec(algorithm="trivial", n=8, seed=seed).to_dict()
                 for seed in range(2)]
        with TrialPool(2) as pool:
            assert len(pool.map(_spec_job, specs)) == 2
    """)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)
    lines = set(record.read_text().splitlines())
    first = inspect.getsourcelines(batch._spec_job)[1]
    assert f"{os.path.realpath(batch.__file__)}:{first}" in {
        f"{os.path.realpath(path)}:{line}"
        for path, _, line in (entry.rpartition(":") for entry in lines)}


def _probe_module():
    spec = importlib.util.spec_from_file_location(
        "execution_probe", os.path.join(PROBE, "execution_probe.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _ci_commands():
    """Every ``python -m repro`` command in CI's workflow, mapped to a
    pattern: the argv up to the first redirection, pipe or shell
    separator, with each shell variable free to match one argument."""
    with open(os.path.join(ROOT, ".github", "workflows", "ci.yml"),
              encoding="utf-8") as handle:
        text = handle.read()
    commands = [match.group(1) for line in text.splitlines()
                if not line.lstrip().startswith("- name:")
                for match in re.finditer(
                    r"-m repro (.*?)\s*(?:2?>|\||<|;|&&|\)|$)", line)]
    # The invalid-argument loop reads its argv from a heredoc.
    for block in re.findall(r"done <<'EOF'\n(.*?)\n\s*EOF", text, re.DOTALL):
        commands += [line.strip() for line in block.splitlines()]
    return {command: re.sub(r"\\\$\w+", r"[^ ]+", re.escape(command))
            for command in commands if command != "$args"}


def test_the_smoke_roots_are_the_commands_ci_runs():
    smoke = {" ".join(arg.format(tmp="/tmp") for arg in argv)
             for argv, _ in _probe_module().SMOKE}
    patterns = _ci_commands()
    missing = sorted(ci for ci, pattern in patterns.items()
                     if not any(re.fullmatch(pattern, command)
                                for command in smoke))
    extra = sorted(command for command in smoke
                   if not any(re.fullmatch(pattern, command)
                              for pattern in patterns.values()))
    assert not missing, f"CI runs these; SMOKE does not: {missing}"
    assert not extra, f"SMOKE runs these; CI does not: {extra}"


def test_every_verdict_names_a_defined_function_for_a_known_reason():
    probe = _probe_module()
    keys = {probe.function_key(module, name)
            for module, name, _ in probe.definitions().values()}
    verdicts, errors = probe.read_verdicts(keys)
    assert not errors, errors
    assert "repro.sim.engine:Simulation.snapshot" in verdicts


def test_a_stale_or_malformed_verdict_is_named(tmp_path):
    probe = _probe_module()
    path = tmp_path / "verdicts.txt"
    path.write_text(
        "# a comment line\n"
        "repro.sim.engine:Simulation.restore e2e  # a trailing comment\n"
        "repro.sim.engine:Simulation.restore e2e\n"
        "repro.sim.engine:Simulation.snapshot unused\n"
        "repro.sim.engine:Simulation.rewind tier1:tests/test_spec.py\n"
        "repro.sim.engine:Simulation.run bench:tests/test_spec.py\n"
        "repro.sim.engine:Simulation.step\n")
    keys = {f"repro.sim.engine:Simulation.{name}"
            for name in ("restore", "snapshot", "run", "step")}
    verdicts, errors = probe.read_verdicts(keys, str(path))
    assert verdicts["repro.sim.engine:Simulation.restore"] == "e2e"
    assert [error.split(": ", 1)[1] for error in errors] == [
        "duplicate verdict for repro.sim.engine:Simulation.restore",
        "reason 'unused' is not one of abstract, oracle, e2e, item-2, "
        "bench:<file>, tier1:<file>",
        "repro.sim.engine:Simulation.rewind is not defined",
        "reason 'bench:tests/test_spec.py' is not one of abstract, oracle, "
        "e2e, item-2, bench:<file>, tier1:<file>",
        "expected '<module>:<qualname> <reason>', got "
        "'repro.sim.engine:Simulation.step'",
    ]
    assert [error.split(": ", 1)[0] for error in errors] == [
        "verdicts.txt:3", "verdicts.txt:4", "verdicts.txt:5",
        "verdicts.txt:6", "verdicts.txt:7"]
