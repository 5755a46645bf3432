"""The layer-bench harness (``benchmarks/_harness.py``) driven by fake
cells, and the committed ``BENCH_*.json`` against its schema: a stale or
red committed report fails tier-1."""

import glob
import itertools
import json
import os
import sys
import types

import pytest

from .conftest import BENCHMARKS, import_benchmark

harness = import_benchmark("_harness")

ROOT = os.path.join(BENCHMARKS, os.pardir)


def fake_cell(cell_id="a", gates=(), **measures):
    return harness.Cell(cell_id, "a fake", {"size": 1},
                        lambda repeats: dict(measures), tuple(gates))


def load(path):
    with open(path, encoding="utf-8") as handle:
        report = json.load(handle)
    harness.validate(report)
    return report


@pytest.fixture
def fake_bench(monkeypatch):
    """Registers a bench module the way a script is one: a name, a doc
    line and ``cells(quick)``; ``harness.main(name)`` is its entry."""
    def register(cells, name="bench_fake"):
        module = types.ModuleType(name)
        module.__doc__ = "A fake bench."
        module.BENCHMARK = name.removeprefix("bench_")
        module.cells = lambda quick: cells
        monkeypatch.setitem(sys.modules, name, module)
        return name

    return register


class TestGates:
    @pytest.mark.parametrize("op, bound, value, ok", [
        (">=", 1.0, 1.0, True), (">=", 1.0, 0.99, False),
        ("<=", 150, 150, True), ("<=", 150, 150.01, False),
        ("==", 1.0, 1.0, True), ("==", 1.0, 0.75, False),
    ])
    def test_each_op_on_both_sides_of_its_bound(
            self, fake_bench, tmp_path, op, bound, value, ok):
        out = str(tmp_path / "r.json")
        name = fake_bench([fake_cell(gates=[harness.gate("x", op, bound)],
                                     x=value)])
        assert harness.main(name, ["--out", out]) == (0 if ok else 1)
        assert load(out)["cells"][0]["gates"] == [
            {"measure": "x", "op": op, "bound": bound, "ok": ok}]

    def test_no_gate_exits_zero_and_still_records_the_verdict(
            self, fake_bench, tmp_path, capsys):
        out = str(tmp_path / "r.json")
        name = fake_bench([fake_cell(gates=[harness.gate("x", ">=", 2)],
                                     x=1)])
        assert harness.main(name, ["--out", out, "--no-gate"]) == 0
        assert load(out)["cells"][0]["gates"][0]["ok"] is False
        assert "fake/a" in capsys.readouterr().err

    def test_an_exact_check_is_not_waived_by_no_gate(
            self, fake_bench, tmp_path):
        def diverged(repeats):
            harness.require_equal({"messages": 3547}, {"messages": 3546},
                                  "stepwise and leap diverged")

        name = fake_bench([harness.Cell("a", "", {}, diverged)])
        with pytest.raises(AssertionError, match="diverged"):
            harness.main(name, ["--out", str(tmp_path / "r.json"),
                                "--no-gate"])
        assert not (tmp_path / "r.json").exists()


class TestBestOf:
    def test_best_wall_clock_and_the_one_value(self):
        built = itertools.count()
        best, value = harness.best_of(
            lambda k: "same", 3, fresh=lambda: next(built))
        assert value == "same" and best >= 0 and next(built) == 3

    def test_a_value_that_differs_between_repeats_raises(self):
        draws = itertools.count()
        with pytest.raises(AssertionError, match="differs between repeats"):
            harness.best_of(lambda: next(draws), 2)


class TestReport:
    def run(self, cells, out, quick=False, label="first"):
        return harness.run_benchmark(
            "fake", cells, quick=quick, out=str(out), label=label)

    def test_trajectory_keeps_earlier_entries(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        self.run([fake_cell(x=2.0)], out)
        self.run([fake_cell(x=3.0)], out, label="second")
        report = load(out)
        assert [(e["label"], e["cells"]) for e in report["trajectory"]] == [
            ("first", {"a": {"x": 2.0}}), ("second", {"a": {"x": 3.0}})]
        assert report["stamp"]["label"] == "second"
        assert report["stamp"]["repeats"] == 3
        # The printed line carries the change against the previous entry.
        assert "x 3 (+50%)" in capsys.readouterr().out

    def test_trajectory_restarts_on_a_different_cell_set(self, tmp_path):
        out = tmp_path / "r.json"
        self.run([fake_cell("a", x=2.0)], out)
        self.run([fake_cell("a", x=2.0), fake_cell("b", x=1.0)], out,
                 label="second")
        assert [e["label"] for e in load(out)["trajectory"]] == ["second"]

    @pytest.mark.parametrize("first, then", [(False, True), (True, False)])
    def test_quick_and_full_never_overwrite_each_other(
            self, tmp_path, first, then):
        out = tmp_path / "r.json"
        self.run([fake_cell(x=2.0)], out, quick=first)
        before = out.read_text()
        measured = []
        cell = harness.Cell("a", "", {}, measured.append)
        with pytest.raises(SystemExit, match="refusing to overwrite"):
            self.run([cell], out, quick=then)
        assert out.read_text() == before
        assert not measured  # refused before anything ran

    def test_another_benchmarks_file_is_refused(self, tmp_path):
        out = tmp_path / "r.json"
        self.run([fake_cell(x=2.0)], out)
        with pytest.raises(SystemExit, match="refusing to overwrite"):
            harness.run_benchmark("other", [fake_cell(x=2.0)], quick=False,
                                  out=str(out))

    def test_a_skipped_cell_records_only_its_reason(self, tmp_path, capsys):
        def no_numpy(repeats):
            raise harness.Skipped("numpy is not available")

        out = tmp_path / "r.json"
        failed, skipped = self.run(
            [harness.Cell("b", "needs numpy", {"trials": 64}, no_numpy,
                          (harness.gate("speedup", ">=", 1.0),)),
             fake_cell("a", x=1.0)], out)
        assert (failed, skipped) == ([], ["b"])
        report = load(out)
        assert report["cells"][0] == {
            "id": "b", "note": "needs numpy", "params": {"trials": 64},
            "skipped": "numpy is not available"}
        assert report["trajectory"][-1]["cells"] == {"a": {"x": 1.0}}
        assert "b: SKIPPED (numpy is not available)" in capsys.readouterr().out

    def test_cells_may_be_a_generator_holding_a_fixture(self, tmp_path):
        events = []

        def cells():
            events.append("built")
            for name in "ab":
                yield harness.Cell(
                    name, "", {},
                    lambda repeats, name=name: events.append(name) or {"x": 1})
            events.append("torn down")

        self.run(cells(), tmp_path / "r.json")
        assert events == ["built", "a", "b", "torn down"]


class TestRunAll:
    def test_all_writes_one_report_per_bench_and_says_what_it_skipped(
            self, fake_bench, monkeypatch, tmp_path, capsys):
        def skip(repeats):
            raise harness.Skipped("no numpy")

        names = (fake_bench([fake_cell(x=1.0)], "bench_one"),
                 fake_bench([harness.Cell("s", "", {}, skip)], "bench_two"))
        monkeypatch.setattr(harness, "LAYER_BENCHES", names)
        out_dir = tmp_path / "reports"
        assert harness.main(argv=["--all", "--quick", "--label", "L",
                                  "--out-dir", str(out_dir)]) == 0
        assert sorted(os.listdir(out_dir)) == [
            "BENCH_one.json", "BENCH_two.json"]
        report = load(out_dir / "BENCH_one.json")
        assert report["quick"] is True
        assert report["stamp"]["label"] == "L"
        assert report["stamp"]["repeats"] == 2
        assert "SKIPPED, neither measured nor gated: two/s" in \
            capsys.readouterr().out

    def test_all_is_required_and_out_belongs_to_one_script(self):
        with pytest.raises(SystemExit):
            harness.main(argv=["--quick"])
        with pytest.raises(SystemExit):
            harness.main(argv=["--all", "--out", "x.json"])


class TestValidate:
    def report(self, tmp_path):
        out = tmp_path / "r.json"
        harness.run_benchmark(
            "fake", [fake_cell(gates=[harness.gate("x", ">=", 1)], x=2.0)],
            quick=False, out=str(out))
        return load(out)

    @pytest.mark.parametrize("damage", [
        lambda r: r.update(schema=2),
        lambda r: r.pop("stamp"),
        lambda r: r["cells"][0]["measures"].update(x="fast"),
        lambda r: r["cells"][0]["gates"][0].update(ok=False),
        lambda r: r["cells"][0]["gates"][0].update(op="~="),
        lambda r: r["cells"].append(dict(r["cells"][0])),
        lambda r: r["trajectory"][-1]["cells"]["a"].update(x=9.0),
        lambda r: r["trajectory"][-1]["stamp"].pop("numpy"),
        lambda r: r["trajectory"].clear(),
    ])
    def test_rejects(self, tmp_path, damage):
        report = self.report(tmp_path)
        damage(report)
        with pytest.raises(ValueError, match="fake"):
            harness.validate(report)


COMMITTED = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))


def test_all_six_layer_reports_are_committed():
    assert [os.path.basename(path) for path in COMMITTED] == sorted(
        f"BENCH_{import_benchmark(name).BENCHMARK}.json"
        for name in harness.LAYER_BENCHES)


@pytest.mark.parametrize("path", COMMITTED, ids=os.path.basename)
def test_committed_report_is_a_green_full_run(path):
    report = load(path)
    assert report["quick"] is False
    assert not [c["id"] for c in report["cells"] if "skipped" in c]
    assert all(g["ok"] for c in report["cells"] for g in c["gates"])
    assert report["trajectory"][-1]["cells"] == harness.measured(
        report["cells"])
