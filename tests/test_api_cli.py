"""Tests for the public API facade and the CLI."""

import pytest

from repro.adversary.crash_plans import CrashPlan
from repro.api import default_step_limit, run_gossip
from repro.cli import main
from repro.sim.errors import ConfigurationError
from repro.spec import RunSpec, execute, resolve_crash_plan
from repro.spec.registry import SCENARIOS

#: ``repro list`` and ``repro scenarios`` stdout, byte for byte, from
#: before every name set became one literal table.
LIST_STDOUT = (
    "gossip algorithms:\n"
    "  adaptive-fanout\n" "  ears\n" "  ps-push-pull\n" "  push-pull\n"
    "  sears\n" "  sparse\n" "  tears\n" "  trivial\n" "  uniform\n"
    "consensus transports:\n"
    "  all-to-all\n" "  ears\n" "  sears\n" "  tears\n" "  ben-or\n"
    "adversaries:\n"
    "  gst\n" "  lower-bound\n" "  synchronous\n" "  uniform\n"
    "crash plans:\n"
    "  none\n" "  random-early\n" "  staggered-halving\n" "  wave\n"
    "topologies:\n"
    "  complete\n" "  gnp\n" "  random-regular\n" "  ring\n" "  small-world\n"
    "scenarios:\n"
    "  calm\n" "  failure-wave\n" "  flaky\n" "  halving-epochs\n"
    "  lossy-links\n" "  skewed-speeds\n"
)
SCENARIOS_STDOUT = (
    "calm             d=1 delta=1  "
    "failure-free, maximal synchrony (d = δ = 1)\n"
    "failure-wave     d=2 delta=2  "
    "all f victims crash simultaneously at t = 4\n"
    "flaky            d=2 delta=2  "
    "mild asynchrony plus f random early crashes\n"
    "halving-epochs   d=2 delta=2  "
    "crash waves halving the failure budget per epoch (the EARS analysis's "
    "epoch structure)\n"
    "lossy-links      d=4 delta=1  "
    "slow network: message delays up to 4\n"
    "skewed-speeds    d=1 delta=4  "
    "uneven scheduling: up to 4 steps between turns\n"
)

#: A small Theorem 1 execution: trivial gossip forced into Case 1.
LOWER_BOUND_SPEC = {
    "algorithm": "trivial", "n": 32, "f": 8,
    "adversary": {"name": "lower-bound", "samples": 2, "phase1_cap": 300},
}


class TestRunGossipValidation:
    def test_unknown_algorithm(self):
        with pytest.raises(ConfigurationError):
            run_gossip("carrier-pigeon", n=8)

    def test_crashes_beyond_f(self):
        with pytest.raises(ConfigurationError):
            run_gossip("ears", n=8, f=2, crashes=3)

    def test_crash_plan_beyond_f(self):
        from repro.adversary.crash_plans import wave_crashes

        with pytest.raises(ConfigurationError):
            run_gossip("ears", n=8, f=1, crashes=wave_crashes([1, 2], at=0))

    def test_step_limit_scales(self):
        assert default_step_limit(256, 192, 4, 4) > default_step_limit(
            16, 0, 1, 1)


class TestRunGossipResult:
    def test_result_fields(self):
        run = run_gossip("ears", n=16, f=4, d=2, delta=2, seed=1, crashes=4)
        assert run.algorithm == "ears"
        assert run.time == run.completion_time
        assert run.messages == sum(run.messages_by_kind.values())
        assert run.crashes == 4
        assert run.result.metrics["n"] == 16

    def test_payloads_carried(self):
        run = run_gossip("trivial", n=6, f=0,
                         payloads=[f"r{i}" for i in range(6)])
        for pid in range(6):
            assert run.sim.algorithm(pid).rumors.value_of(0) == "r0"

    def test_majority_override(self):
        # Force full gossip on tears: usually still succeeds at small n
        # because the first-level fanout is everyone.
        run = run_gossip("tears", n=12, f=3, seed=2, majority=False)
        assert run.completed


class TestScenarios:
    def test_registry_complete(self):
        assert {"calm", "flaky", "failure-wave", "lossy-links",
                "skewed-speeds", "halving-epochs"} <= set(SCENARIOS)

    def test_scenario_row(self):
        row = SCENARIOS["flaky"]
        plan = resolve_crash_plan(row["crashes"], 16, 4, row["d"],
                                  row["delta"], seed=1)
        assert isinstance(plan, CrashPlan) and plan.total == 4

    def test_unknown_scenario(self):
        with pytest.raises(KeyError):
            SCENARIOS["perfect-storm"]
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            execute(RunSpec(algorithm="ears", n=16, scenario="perfect-storm"))

    def test_scenarios_deterministic(self):
        row = SCENARIOS["failure-wave"]

        def plan():
            return resolve_crash_plan(row["crashes"], 16, 4, row["d"],
                                      row["delta"], seed=7)

        assert plan().events() == plan().events()

    def test_scenario_runs_end_to_end(self):
        run = execute(RunSpec(algorithm="ears", n=16, f=4, seed=0,
                              scenario="halving-epochs"))
        assert run.completed and run.crashes == 4


class TestCli:
    def test_gossip_command(self, capsys):
        assert main(["gossip", "--algorithm", "trivial", "-n", "12"]) == 0
        assert "completed=True" in capsys.readouterr().out

    def test_consensus_command(self, capsys):
        assert main(["consensus", "--transport", "all-to-all",
                     "-n", "8"]) == 0
        out = capsys.readouterr().out
        assert "agreement=True" in out

    def test_scenarios_command(self, capsys):
        assert main(["scenarios"]) == 0
        assert capsys.readouterr().out == SCENARIOS_STDOUT

    def test_table1_command(self, capsys):
        assert main(["table1", "-n", "16", "--seeds", "1"]) == 0
        assert "Table 1" in capsys.readouterr().out

    def test_table2_command(self, capsys):
        assert main(["table2", "-n", "12", "--seeds", "1"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_scaling_command(self, capsys):
        assert main(["scaling", "--min-n", "16", "--max-n", "32",
                     "--seeds", "1"]) == 0
        assert "ordering" in capsys.readouterr().out

    def test_theorem1_command(self, capsys):
        assert main(["theorem1", "-n", "64", "-f", "16",
                     "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "Theorem 1" in out
        assert "message-blowup" in out

    def test_grid_command(self, capsys):
        assert main(["grid", "--algorithms", "trivial,ears", "--ns", "12",
                     "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "trivial" in out and "ears" in out

    def test_grid_command_cached_and_parallel(self, capsys, tmp_path):
        argv = ["grid", "--algorithms", "trivial", "--ns", "8,12",
                "--seeds", "1", "--out-dir", str(tmp_path),
                "--processes", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0  # second run: every cell a cache hit
        assert capsys.readouterr().out == first

    def test_grid_command_profile(self, capsys):
        assert main(["grid", "--algorithms", "trivial", "--ns", "8",
                     "--seeds", "1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "compute+send" in out

    def test_sweep_command(self, capsys):
        assert main(["sweep", "--algorithm", "trivial", "--min-n", "8",
                     "--max-n", "16", "--seeds", "1"]) == 0
        out = capsys.readouterr().out
        assert "n=" in out and "completion=1.00" in out

    def test_sweep_command_parallel_matches_sequential(self, capsys):
        argv = ["sweep", "--algorithm", "ears", "--min-n", "8",
                "--max-n", "16", "--seeds", "2"]
        assert main(argv) == 0
        sequential = capsys.readouterr().out
        assert main(argv + ["--processes", "2"]) == 0
        assert capsys.readouterr().out == sequential

    def test_sweep_command_profile(self, capsys):
        assert main(["sweep", "--algorithm", "trivial", "--min-n", "8",
                     "--max-n", "8", "--seeds", "1", "--profile"]) == 0
        out = capsys.readouterr().out
        assert "phase" in out and "seconds" in out

    @pytest.mark.parametrize("argv", [
        ["grid", "--algorithms", "trivial,ears", "--ns", "8,12",
         "--seeds", "2"],
        ["sweep", "--algorithm", "ears", "--min-n", "8", "--max-n", "16",
         "--seeds", "2"],
    ])
    def test_profile_prints_the_plain_table(self, capsys, argv):
        """A profiled campaign runs inline and uncached, and its table is
        the plain run's; only the profiler report follows it."""
        assert main(argv) == 0
        plain = capsys.readouterr().out
        assert main(argv + ["--profile", "--processes", "2"]) == 0
        profiled = capsys.readouterr().out
        table, report = profiled.split("\n\n", 1)
        assert table + "\n" == plain
        assert "phase" in report

    @pytest.mark.parametrize("argv", [
        ["grid", "--algorithms", "trivial", "--ns", "8", "--seeds", "1"],
        ["sweep", "--algorithm", "trivial", "--min-n", "8",
         "--max-n", "8", "--seeds", "1"],
    ])
    def test_resume_and_profile_are_mutually_exclusive(
            self, capsys, tmp_path, argv):
        """Regression: --resume used to be silently ignored when
        --profile was set (no store, no warning)."""
        store = tmp_path / "campaign.sqlite"
        argv = argv + ["--profile", "--resume", str(store)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "cannot be combined" in captured.err
        assert captured.out == "" and not store.exists()

    @pytest.mark.parametrize("command, flag", [
        *((command, "--seeds") for command in ("gossip", "consensus")),
        *((command, flag) for command in ("table1", "table2")
          for flag in ("--seed", "--crashes", "--engine")),
        *((command, flag) for command in ("theorem1", "corollary2")
          for flag in ("-d", "--delta", "--seed", "--crashes", "--engine")),
        ("inspect", "--seeds"), ("inspect", "--engine"),
    ])
    def test_flag_the_subcommand_never_reads_is_refused(
            self, capsys, command, flag):
        value = "leap" if flag == "--engine" else "2"
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" \
            in capsys.readouterr().err

    @pytest.mark.parametrize("argv, needle", [
        (["gossip", "-n", "8", "-d", "-5"], "d must be >= 1, got -5"),
        (["consensus", "-n", "8", "--delta", "0"],
         "delta must be >= 1, got 0"),
        (["inspect", "-n", "8", "--width", "0"],
         "--width must be >= 1, got 0"),
    ], ids=["gossip-d", "consensus-delta", "inspect-width"])
    def test_invalid_run_number_is_one_error_line(self, capsys, argv,
                                                  needle):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {needle}\n"

    @pytest.mark.parametrize("argv, needle", [
        (["sweep", "--algorithm", "trivial", "--min-n", "8", "--max-n", "8",
          "--seeds", "1", "--processes", "0"], "processes must be >= 1"),
        (["sweep", "--algorithm", "trivial", "--min-n", "8", "--max-n", "8",
          "--seeds", "1", "--retries", "-3"], "retries must be >= 0"),
        (["grid", "--algorithms", "trivial", "--ns", "8", "--seeds", "1",
          "--trial-timeout", "-1", "--processes", "2"],
         "trial_timeout must be > 0"),
        (["chaos", "--trials", "0"], "--trials must be >= 1"),
        (["fleet", "run", "--dir", "{tmp}/fleet", "--workers", "0"],
         "need at least 1 worker"),
    ], ids=["processes", "retries", "trial-timeout", "chaos-trials",
            "fleet-workers"])
    def test_invalid_campaign_number_is_one_error_line(
            self, capsys, tmp_path, argv, needle):
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and needle in captured.err
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("argv, needle", [
        (["batch", "--specs", "{spec}", "--resume", "{tmp}/x.json"],
         "names a JSON manifest"),
        (["batch", "--specs", "{spec}", "--store", "{tmp}/a.sqlite",
          "--resume", "{tmp}/b.sqlite"], "names a different file"),
        (["grid", "--algorithms", "trivial", "--ns", "8", "--seeds", "1",
          "--out-dir", "{tmp}/D", "--resume", "{tmp}/other.jsonl"],
         "names a different file"),
    ], ids=["json-manifest", "batch-store", "grid-out-dir"])
    def test_refused_resume_is_one_error_line(self, capsys, tmp_path,
                                              argv, needle):
        from repro.spec import RunSpec

        spec_path = tmp_path / "specs.json"
        RunSpec(algorithm="trivial", n=8, seed=0).save(str(spec_path))
        argv = [arg.format(tmp=tmp_path, spec=spec_path) for arg in argv]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and needle in captured.err
        assert captured.err.count("\n") == 1
        # The --resume path is named, and nothing was created.
        resume = argv[argv.index("--resume") + 1]
        assert resume in captured.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["specs.json"]

    @pytest.mark.parametrize("shard", ["1", "4/4"])
    def test_batch_bad_shard_is_one_error_line(self, capsys, tmp_path,
                                               shard):
        from repro.spec import RunSpec

        spec_path = tmp_path / "specs.json"
        RunSpec(algorithm="trivial", n=8, seed=0).save(str(spec_path))
        assert main(["batch", "--specs", str(spec_path),
                     "--shard", shard]) == 2
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("error:")] == err
        assert len(err) == 1 and "shard" in err[0]

    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        assert capsys.readouterr().out == LIST_STDOUT

    def test_run_command(self, capsys, tmp_path):
        from repro.spec import RunSpec

        spec_path = tmp_path / "spec.json"
        RunSpec(algorithm="trivial", n=12, seed=0).save(str(spec_path))
        assert main(["run", "--spec", str(spec_path)]) == 0
        out = capsys.readouterr().out
        assert "completed = True" in out and "cache hit" not in out

    def test_run_command_store_cache_hit(self, capsys, tmp_path):
        from repro.spec import RunSpec

        spec_path = tmp_path / "spec.json"
        RunSpec(algorithm="trivial", n=12, seed=0).save(str(spec_path))
        argv = ["run", "--spec", str(spec_path),
                "--store", str(tmp_path / "runs.jsonl")]
        assert main(argv) == 0
        assert "cache hit" not in capsys.readouterr().out
        assert main(argv) == 0
        assert "cache hit" in capsys.readouterr().out

    def test_run_command_json_output(self, capsys, tmp_path):
        import json

        from repro.spec import RunSpec

        spec_path = tmp_path / "spec.json"
        spec = RunSpec(algorithm="trivial", n=12, seed=0)
        spec.save(str(spec_path))
        assert main(["run", "--spec", str(spec_path), "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["spec_hash"] == spec.spec_hash
        assert record["metrics"]["completed"] is True

    def test_run_command_example_spec(self, capsys):
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "spec_ears.json")
        assert main(["run", "--spec", path]) == 0
        assert "4b533c0adb6065c5" in capsys.readouterr().out

    def test_run_command_knob_spec_is_a_cache_hit(self, capsys, tmp_path):
        import os

        path = os.path.join(os.path.dirname(__file__), "..", "examples",
                            "spec_sears_eps.json")
        argv = ["run", "--spec", path, "--store", str(tmp_path / "s.jsonl")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "messages = 3928" in first and "cache hit" not in first
        assert main(argv) == 0
        assert "cache hit" in capsys.readouterr().out

    @pytest.mark.parametrize("spec, needle", [
        ({"algorithm": "earz"}, "did you mean 'ears'"),
        ({"algorithm": "sears", "params": {"epz": 0.25}},
         "bad params for algorithm 'sears'"),
        ({"algorithm": "trivial", "params": {"eps": 0.25}},
         "bad params for algorithm 'trivial'"),
        ({"algorithm": "all-to-all", "kind": "consensus", "n": 8,
          "params": {"fanout": 2}},
         "bad params for algorithm 'all-to-all'"),
        ({"algorithm": "sears", "kind": "consensus", "n": 8,
          "params": {"fanout": 2}}, "'fanout'"),
        ({"algorithm": "ben-or", "kind": "consensus", "n": 8,
          "params": {"eps": 0.25}}, "bad params for algorithm 'ben-or'"),
        ({"algorithm": "ears", "fanout": 2}, "unknown RunSpec field"),
        ({**LOWER_BOUND_SPEC, "d": 2}, "cannot honor ['d']"),
        ({**LOWER_BOUND_SPEC, "adversary": {"name": "lower-bound",
                                            "sample": 2}},
         "bad knobs for adversary 'lower-bound'"),
        ({**LOWER_BOUND_SPEC, "adversary": {"name": "lower-bound",
                                            "samples": 0}},
         "samples must be >= 1"),
        ({**LOWER_BOUND_SPEC, "adversary": {"name": "lower-bound",
                                            "phase1_cap": 0}},
         "phase1_cap must be >= 1"),
        ({**LOWER_BOUND_SPEC, "adversary": {"name": "lower-bound",
                                            "promiscuity_factor": 0}},
         "promiscuity_factor must be > 0"),
        ({**LOWER_BOUND_SPEC, "adversary": {"name": "lower-bound",
                                            "promiscuity_factor": -1.0}},
         "promiscuity_factor must be > 0"),
    ])
    def test_malformed_spec_is_one_error_line(self, capsys, tmp_path,
                                              spec, needle):
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        assert main(["run", "--spec", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and needle in captured.err
        assert captured.err.count("\n") == 1

    def test_lower_bound_record_is_ok(self, capsys, tmp_path):
        """A lower-bound record has no ``completed``: ``run`` and ``batch``
        judge it ok by its forced case, not as an incomplete run."""
        import json

        path = tmp_path / "spec.json"
        path.write_text(json.dumps(LOWER_BOUND_SPEC))
        assert main(["run", "--spec", str(path)]) == 0
        assert "case = message-blowup" in capsys.readouterr().out
        assert main(["batch", "--specs", str(path)]) == 0
        line, summary = capsys.readouterr().out.splitlines()
        assert line.split()[1:] == [
            "ok", "case=message-blowup", "forced_time=None",
            "forced_messages=124"]
        assert summary == "batch: 1/1 spec(s) ok"

    @pytest.mark.parametrize("command", ["batch", "verify"])
    def test_sqlite_path_that_is_not_a_database_is_one_error_line(
            self, capsys, tmp_path, command):
        from repro.spec import RunSpec

        spec_path = tmp_path / "specs.json"
        RunSpec(algorithm="trivial", n=8, seed=0).save(str(spec_path))
        notdb = tmp_path / "notdb.sqlite"
        notdb.write_text("not a database\n" * 100)
        argv = {"batch": ["batch", "--specs", str(spec_path),
                          "--store", str(notdb)],
                "verify": ["store", "verify", str(notdb)]}[command]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert str(notdb) in captured.err
        assert "not a SQLite database" in captured.err

    def test_refused_manifest_is_one_error_line(self, capsys, tmp_path):
        import json

        old = tmp_path / "old.json"
        old.write_text(json.dumps({"schema": 1, "meta": {"driver": "sweep"},
                                   "submitted": {}, "completed": {}}))
        assert main(["sweep", "--algorithm", "trivial", "--min-n", "8",
                     "--max-n", "8", "--seeds", "1",
                     "--resume", str(old)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "names a JSON manifest" in err
        assert "the campaign's store" in err
