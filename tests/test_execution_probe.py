"""The execution probe's hook sees pool workers and signal handlers: a
function that only a worker process or a signal handler runs is recorded,
and so is each of two identical functions in two files
(``tests/probe/``; the gate itself is a CI step, not a tier-1 test), its
smoke roots are the ``python -m repro`` steps it reads from CI's
workflow, and its verdict file is well formed (parsed, not run) with
``tier1`` lines for the named safety paths only."""

import importlib.util
import inspect
import os
import subprocess
import sys
import textwrap

import repro
from repro.experiments import campaign
from repro.experiments.campaign import GracefulShutdown
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


def test_a_signal_handler_is_recorded_without_a_profile_event(tmp_path):
    # A handler that fires while the hook's own profile function runs
    # gets no profile event; here the profile function is off outright.
    record = tmp_path / "entered.txt"
    env = {**os.environ, "REPRO_PROBE_OUT": str(record),
           "PYTHONPATH": os.pathsep.join([
               PROBE, os.path.dirname(os.path.dirname(repro.__file__))])}
    code = textwrap.dedent("""
        import os, signal, sys
        from repro.experiments.campaign import GracefulShutdown

        with GracefulShutdown(verbose=False) as shutdown:
            sys.setprofile(None)
            os.kill(os.getpid(), signal.SIGTERM)
        assert shutdown.requested
    """)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)
    first = inspect.getsourcelines(GracefulShutdown._handle)[1]
    assert f"{os.path.realpath(campaign.__file__)}:{first}" in {
        f"{os.path.realpath(path)}:{line}"
        for path, _, line in (entry.rpartition(":")
                              for entry in record.read_text().splitlines())}


def test_identical_functions_in_two_files_are_both_recorded(tmp_path):
    # Code objects compare equal across files: a one-line method on the
    # same line of two modules must still be recorded once per file.
    package = tmp_path / "repro"
    package.mkdir()
    for name in ("first", "second"):
        (package / f"{name}.py").write_text(
            "def on_attach(self, engine):\n    self.sim = engine\n")
    record = tmp_path / "entered.txt"
    env = {**os.environ, "REPRO_PROBE_OUT": str(record),
           "PYTHONPATH": os.pathsep.join([PROBE, str(package)])}
    code = textwrap.dedent("""
        import types
        import first, second
        for module in (first, second):
            module.on_attach(types.SimpleNamespace(), None)
    """)
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=60)
    assert {f"{package / name}.py:1" for name in ("first", "second")} <= set(
        record.read_text().splitlines())


def _probe_module():
    spec = importlib.util.spec_from_file_location(
        "execution_probe", os.path.join(PROBE, "execution_probe.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_smoke_roots_are_cis_repro_steps():
    smoke = {name.split(" (")[0]: script
             for name, script in _probe_module().smoke_steps()}
    assert {"Chaos smoke", "Spec smoke", "Import guard", "Store smoke",
            "Campaign smoke", "Drain-and-resume smoke", "Fleet chaos smoke",
            "Topology smoke"} <= set(smoke)
    assert not {"Tier-1 tests", "Kill-and-resume smoke",
                "Execution probe"} & set(smoke)
    # A multi-line step keeps its heredocs: their terminators are
    # dedented to the start of a line, as CI runs them.
    assert "\nEOF\n" in smoke["Topology smoke"]
    assert "--delta 256" in smoke["Topology smoke"]


def test_a_step_is_read_as_ci_reads_it(tmp_path):
    workflow = tmp_path / "ci.yml"
    workflow.write_text(textwrap.dedent("""\
        jobs:
          one:
            steps:
              - uses: actions/checkout@v4
              - name: Single line
                run: python -m repro list
              - name: Literal block (a python -m repro step)
                timeout-minutes: 5
                run: |
                  python -m repro gossip -n 8
                  python - <<'EOF'
                  print("x")
                  EOF
                env:
                  PYTHONPATH: src
              - name: Folded block
                run: >
                  python -m pytest -q
                  tests/test_spec.py
              - run: echo unnamed
        """))
    probe = _probe_module()
    assert probe.ci_steps(str(workflow)) == [
        ("Single line", "python -m repro list"),
        ("Literal block (a python -m repro step)",
         "python -m repro gossip -n 8\npython - <<'EOF'\nprint(\"x\")\n"
         "EOF\n"),
        ("Folded block", "python -m pytest -q tests/test_spec.py\n"),
        ("", "echo unnamed"),
    ]
    assert [name for name, _ in probe.smoke_steps(str(workflow))] == [
        "Single line", "Literal block (a python -m repro step)"]


#: The only functions that may keep a ``tier1:`` verdict: safety paths
#: that no root can reach, because no shipped algorithm, adversary or
#: input takes them. Any other function only tests enter is deleted,
#: moved under ``tests/``, given a root or labelled ``oracle`` instead.
TIER1_SAFETY = {
    # The deepcopy that keeps a fork of an adversary without its own
    # ``clone_into`` independent of the original: the one adversary a
    # shipped run forks (Theorem 1's ScriptedAdversary) copies itself.
    "repro.adversary.base:Adversary.clone_into",
    # The error a send to an invalid pid or a non-neighbor raises: every
    # shipped algorithm addresses only valid pids and its neighbors.
    "repro.sim.process:Context._bad_destination",
}


def test_tier1_verdicts_stay_under_their_ceiling():
    """The ceiling is :data:`TIER1_SAFETY`: a ``tier1:`` line for any
    other function fails, whatever the count."""
    probe = _probe_module()
    keys = {probe.function_key(module, name)
            for module, name, _ in probe.definitions().values()}
    verdicts, _ = probe.read_verdicts(keys)
    tier1 = {key for key, reason in verdicts.items()
             if reason.startswith("tier1:")}
    assert tier1 <= TIER1_SAFETY, (
        f"tier1 verdicts for functions that are not safety paths: "
        f"{sorted(tier1 - TIER1_SAFETY)}")


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
