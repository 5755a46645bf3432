"""The one chaos runner: every matrix is a cell list through ``run_jobs``.

Pins the cells each matrix produced before its driver became a cell
builder (the oracle below), that every control kind turns a trip into a
false positive, that a fleet control is torn down like any fleet cell,
and that ``--faults`` selects rows across both matrices without ever
widening one.
"""

import pytest

import repro.fleet
from repro.cli import main
from repro.faults import (
    campaign,
    fleet_faults,
    format_campaign,
    run_campaign,
    run_fleet_campaign,
)
from repro.fleet import FleetTimeout, LiveFleet
from repro.store import JsonlStore

TITLE = "Chaos campaign — seeded faults vs. invariant detectors"

#: (fault, kind, algorithm, trial, seed, expected, detected, fired, ok) of
#: ``run_campaign(seed=0, trials=1)`` before the drivers became cell lists.
MODEL_ORACLE = [
    ("decision-flip", "consensus", "ben-or", 0, 0,
     ("consensus-irrevocability",), "consensus-irrevocability", True, True),
    ("delay-burst", "gossip", "ears", 0, 0, ("bound-d",), "bound-d",
     True, True),
    ("delay-burst", "consensus", "ben-or", 0, 0, ("bound-d",), "bound-d",
     True, True),
    ("foreign-rumor", "gossip", "ears", 0, 0, ("gossip-validity",),
     "gossip-validity", True, True),
    ("forged-message", "gossip", "ears", 0, 0, ("crash-consistency",),
     "crash-consistency", True, True),
    ("forged-message", "consensus", "ben-or", 0, 0, ("crash-consistency",),
     "crash-consistency", True, True),
    ("forged-message-live", "gossip", "ears", 0, 0, ("traffic-provenance",),
     "traffic-provenance", True, True),
    ("forged-message-live", "consensus", "ben-or", 0, 0,
     ("traffic-provenance",), "traffic-provenance", True, True),
    ("message-duplication", "gossip", "ears", 0, 0, (), None, True, True),
    ("rumor-loss", "gossip", "ears", 0, 0, ("gossip-integrity",),
     "gossip-integrity", True, True),
    ("schedule-stall", "gossip", "ears", 0, 0, ("bound-delta",),
     "bound-delta", True, True),
    ("schedule-stall", "consensus", "ben-or", 0, 0, ("bound-delta",),
     "bound-delta", True, True),
    ("silent-stall", "gossip", "ears", 0, 0, ("liveness",), "liveness",
     True, True),
    ("silent-stall", "consensus", "ben-or", 0, 0, ("liveness",), "liveness",
     True, True),
    ("step-budget", "gossip", "ears", 0, 0, ("liveness",), "liveness",
     True, True),
    ("step-budget", "consensus", "ben-or", 0, 0, ("liveness",), "liveness",
     True, True),
    ("store-checksum-flip", "store", "runstore", 0, 0, ("store-corruption",),
     "store-corruption", True, True),
    ("store-torn-write", "store", "runstore", 0, 0, ("store-corruption",),
     "store-corruption", True, True),
]

def _tuples(report):
    return [(c.fault, c.kind, c.algorithm, c.trial, c.seed, c.expected,
             c.detected, c.fired, c.ok) for c in report.cells]


def _table_faults(text):
    """The fault column of every row of the first rendered table."""
    table = text.split("\n\n")[0].splitlines()
    rule = next(index for index, line in enumerate(table)
                if line.startswith("---"))
    return [line.split("|")[0].strip() for line in table[rule + 1:]]


class TestOracle:
    def test_model_matrix_cells_unchanged(self):
        report = run_campaign(seed=0, trials=1)
        assert _tuples(report) == MODEL_ORACLE
        assert report.controls == 9 and not report.false_positives


# -- every control kind turns a trip into a false positive ----------------- #

def _starve(monkeypatch, trips):
    """Cap every simulation whose spec ``trips`` at one step, so its
    strict run raises IncompleteRunError."""
    real = campaign.build

    def build(spec):
        built = real(spec)
        if trips(spec):
            built.max_steps = 1
        return built

    monkeypatch.setattr(campaign, "build", build)


def _trip_model(monkeypatch):
    _starve(monkeypatch,
            lambda spec: spec.kind == "consensus" and spec.crashes)
    return run_campaign(seed=0, trials=1, faults=[], store_faults=[],
                        n=16, consensus_n=5), 8


def _trip_store(monkeypatch):
    real = JsonlStore.verify

    def verify(self):
        report = real(self)
        if not report["ok"]:
            return report
        return {**report, "ok": False,
                "corrupt": [{"line": 1, "reason": "forced"}]}

    monkeypatch.setattr(JsonlStore, "verify", verify)
    report = run_campaign(seed=0, trials=1, faults=[],
                          store_faults=["store-torn-write"], n=16,
                          consensus_n=5)
    assert [cell.ok for cell in report.cells] == [True]
    return report, 9


class _StubFleet:
    campaign = None

    def wait(self, timeout):
        return [0, 0]

    def kill_all(self):
        pass


def _trip_fleet(monkeypatch):
    monkeypatch.setattr(repro.fleet, "start_fleet",
                        lambda root, **kwargs: _StubFleet())
    monkeypatch.setattr(fleet_faults, "_judge_cell",
                        lambda *args: "1 cell(s) lost: ['stub']")
    return run_fleet_campaign(seed=0, trials=1, faults=[],
                              specs_per_cell=1), 1


@pytest.mark.parametrize("trip", [_trip_model, _trip_store, _trip_fleet],
                         ids=["model", "store", "fleet"])
def test_tripped_control_is_a_false_positive(monkeypatch, trip):
    report, controls = trip(monkeypatch)
    assert report.controls == controls
    assert len(report.false_positives) == 1
    assert not report.ok
    text = format_campaign(report)
    assert text.count("FALSE POSITIVE") == 1
    assert "1 false positive(s)" in text


def test_fleet_control_timeout_kills_workers(monkeypatch):
    """A control whose fleet times out is a verdict, not a traceback,
    and its workers are killed like any fleet cell's."""
    killed = []
    real_kill = LiveFleet.kill_all

    def wait(self, timeout=300.0):
        raise FleetTimeout("control fleet did not drain")

    def kill_all(self):
        killed.append(list(self.procs))
        real_kill(self)

    monkeypatch.setattr(LiveFleet, "wait", wait)
    monkeypatch.setattr(LiveFleet, "kill_all", kill_all)
    report = run_fleet_campaign(seed=0, trials=1, faults=[], workers=2,
                                specs_per_cell=2)
    assert len(killed) == 1 and len(killed[0]) == 2
    assert report.cells == [] and report.controls == 1
    [false_positive] = report.false_positives
    assert "FleetTimeout" in false_positive.message
    assert "FALSE POSITIVE" in format_campaign(report)
    for proc in killed[0]:
        proc.wait(timeout=10)
        assert proc.poll() is not None


# -- --faults selects across matrices and never widens one ----------------- #

class TestFaultSelection:
    def test_foreign_selection_runs_controls_only(self, capsys):
        code = main(["chaos", "--matrix", "model", "--quick",
                     "--faults", "fleet-worker-kill"])
        out = capsys.readouterr().out
        assert code == 0
        assert _table_faults(out) == []
        assert "detection: 0/0" in out and "controls: 8 clean" in out

    # The removed Byzantine matrix, its byz-<behavior> faults and the
    # out-of-model message-loss fault (the paper's channels are reliable)
    # are unknown names like any other, with no neighbour to suggest.
    @pytest.mark.parametrize("argv, listed, hint", [
        (["--matrix", "fleat"], "choose from model, fleet, all",
         "did you mean 'fleet'"),
        (["--matrix", "byzantine"], "choose from model, fleet, all", None),
        (["--faults", "byz-tamper"], "fleet-worker-kill", None),
        (["--faults", "message-loss"], "message-duplication", None),
    ], ids=["matrix-typo", "matrix-byzantine", "fault-byzantine",
            "fault-message-loss"])
    def test_unknown_names_exit_2(self, capsys, argv, listed, hint):
        assert main(["chaos", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: unknown ")
        assert captured.err.count("\n") == 1  # one line, no traceback
        assert argv[1] in captured.err and listed in captured.err
        if hint is None:
            assert "did you mean" not in captured.err
        else:
            assert hint in captured.err

    def test_all_matrices_with_one_fault_each(self, capsys):
        selected = ["foreign-rumor", "store-torn-write",
                    "fleet-worker-kill"]
        code = main(["chaos", "--matrix", "all", "--quick",
                     "--faults", ",".join(selected), "--workers", "2"])
        out = capsys.readouterr().out
        assert code == 0
        sections = out.split(TITLE)[1:]
        assert len(sections) == 2
        model, fleet = map(_table_faults, sections)
        assert set(model) == {"foreign-rumor", "store-torn-write"}
        assert fleet == ["fleet-worker-kill"]
        assert set(model + fleet) <= set(selected)
