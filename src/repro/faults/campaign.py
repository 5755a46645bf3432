"""Chaos campaigns: prove the invariant checkers catch seeded faults.

A campaign is a self-test of the robustness plane.  Both chaos matrices
— ``model`` (simulation faults, plus store faults against scratch
artifact stores) and ``fleet`` (:mod:`repro.faults.fleet_faults`) — are
lists of *cells*, plain dicts naming the matrix, fault, kind, algorithm,
trial, seed, expected detectors, the sizes the cell needs and whether it
is a ``control``.  :func:`run_chaos_cells` is the one runner: it hands the
list to :func:`repro.experiments.campaign.run_jobs` with
:func:`run_chaos_cell` as the job, which dispatches on ``matrix`` to one
of three executors (simulation, store, fleet), and folds the outcomes
into a :class:`CampaignReport`.

A simulation cell builds a canonical run (EARS/SEARS/TEARS gossip,
Ben-Or consensus) with the kind's safety invariants attached
(``RunSpec(check_invariants=True)``), arms the fault if it has one,
executes in strict mode, and records which detector fired:

* a fault whose ``expects`` names invariants is *detected* iff the run
  raised :class:`~repro.sim.errors.InvariantViolation` with one of those
  names;
* a liveness fault (``expects = ("liveness",)``) is detected iff strict
  mode raised :class:`~repro.sim.errors.IncompleteRunError`;
* a tolerance fault (empty ``expects``) passes iff the run completed
  with **no** detector firing.

Every matrix also carries control cells — its canonical cells run clean
(invariants on, no fault).  A control judged not ok is a false positive
and fails the campaign.  ``repro chaos`` exits nonzero unless detection
is 100% with zero false positives.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.tables import render_table
from ..experiments.campaign import run_jobs
from ..sim.errors import IncompleteRunError, InvariantViolation
from ..sim.monitor import PredicateMonitor
from ..sim.rng import derive_rng
from ..spec.builder import build
from ..spec.runspec import RunSpec
from .injectors import FAULTS
from .store_faults import STORE_FAULTS

__all__ = [
    "CampaignCell",
    "CampaignReport",
    "chaos_cell",
    "format_campaign",
    "run_campaign",
    "run_chaos_cell",
    "run_chaos_cells",
]

#: The campaign's gossip portfolio (the paper's three efficient algorithms).
GOSSIP_ALGORITHMS: Tuple[str, ...] = ("ears", "sears", "tears")
CONSENSUS_ALGORITHMS: Tuple[str, ...] = ("ben-or",)
ALGORITHMS: Dict[str, Tuple[str, ...]] = {
    "gossip": GOSSIP_ALGORITHMS,
    "consensus": CONSENSUS_ALGORITHMS,
}

#: Detection happens within a few steps of the trigger; cap run length so
#: a *missed* detection costs bounded wall time, not the full step limit.
DETECT_STEP_CAP = 2000


@dataclass
class CampaignCell:
    """One (fault, algorithm, trial) execution and its verdict."""

    fault: str
    kind: str
    algorithm: str
    trial: int
    seed: int
    expected: Tuple[str, ...]
    detected: Optional[str]  # invariant name, "liveness", or None
    fired: bool
    ok: bool
    message: str = ""


@dataclass
class CampaignReport:
    """Everything ``repro chaos`` needs to render and judge a campaign."""

    cells: List[CampaignCell] = field(default_factory=list)
    false_positives: List[CampaignCell] = field(default_factory=list)
    controls: int = 0

    @property
    def detected(self) -> int:
        return sum(1 for cell in self.cells if cell.ok)

    @property
    def missed(self) -> List[CampaignCell]:
        return [cell for cell in self.cells if not cell.ok]

    @property
    def detection_rate(self) -> float:
        if not self.cells:
            return 1.0
        return self.detected / len(self.cells)

    @property
    def ok(self) -> bool:
        return not self.missed and not self.false_positives


def chaos_cell(matrix: str, fault: str, kind: str, algorithm: str,
               trial: int, seed: int, expected: Sequence[str] = (),
               control: bool = False, **inputs: Any) -> Dict[str, Any]:
    """One chaos cell as plain data (a control's ``fault`` is
    ``"(none)"``); ``inputs`` are the sizes and other knobs its
    executor reads."""
    return {"matrix": matrix, "fault": fault, "kind": kind,
            "algorithm": algorithm, "trial": trial, "seed": seed,
            "expected": list(expected), "control": control, **inputs}


def canonical_algorithm(kind: str, trial: int) -> str:
    """The canonical algorithm a fault cell of ``kind`` runs in
    ``trial`` (gossip rotates through EARS/SEARS/TEARS)."""
    algorithms = ALGORITHMS[kind]
    return algorithms[trial % len(algorithms)]


# -- the three executors ---------------------------------------------------- #

#: What an executor returns: ``(detected, message, fired)``.
Verdict = Tuple[Optional[str], str, bool]

def _cell_spec(cell: Dict[str, Any]) -> RunSpec:
    """The canonical spec of a simulation cell, invariants armed."""
    n, gossip = cell["n"], cell["kind"] == "gossip"
    crashes = None
    if cell.get("crashes"):
        crashes = n // 8 if gossip else n // 4
    timing = {"f": n // 4, "d": 2, "delta": 2} if gossip else {}
    return RunSpec(kind=cell["kind"], algorithm=cell["algorithm"], n=n,
                   seed=cell["seed"], crashes=crashes,
                   check_invariants=True, **timing)


def _execute_sim_cell(cell: Dict[str, Any]) -> Verdict:
    """Build, arm the model fault if any, run strictly."""
    built = build(_cell_spec(cell))
    fault = None
    if not cell["control"]:
        fault = FAULTS[cell["fault"]]()
        fault.arm(built, derive_rng(*cell["rng"]))
    if cell["expected"] and cell["expected"] != ["liveness"]:
        # Detection needs the victim rescheduled *after* the tamper; keep
        # the run going past its natural completion so timing never saves
        # a broken execution from its detector.
        built.sim.monitor = PredicateMonitor(
            lambda sim: False, name="chaos-run-on"
        )
        built.max_steps = min(built.max_steps, DETECT_STEP_CAP)
    try:
        built.sim.run(max_steps=built.max_steps, strict=True)
    except InvariantViolation as exc:
        detected, message = exc.invariant, str(exc)
    except IncompleteRunError as exc:
        detected, message = "liveness", str(exc)
    else:
        detected, message = None, (
            "run completed with no detector firing; "
            f"{built.sim.metrics.messages_sent} messages sent"
        )
    fired = fault.fired if fault is not None else not cell["control"]
    return detected, message, fired


def _make_scratch_store(path: str, seed: int, records: int = 4):
    """A small real store: genuine specs, fabricated (cheap) metrics.

    Corruption detection is purely syntactic — no simulation needs to
    run to exercise it — so the records carry synthetic metrics stamped
    exactly like real ones (schema, spec hash, CRC).  The specs take the
    :meth:`RunSpec.load_many` round trip ``repro batch`` uses, so the
    records exercise exactly the serialized-spec provenance format.
    """
    from ..store import JsonlStore

    spec_path = os.path.join(os.path.dirname(path), "specs.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump([
            RunSpec(kind="gossip", algorithm="ears", n=16, f=4,
                    seed=seed * 1000 + index).to_dict()
            for index in range(records)
        ], handle)
    store = JsonlStore(path)
    for index, spec in enumerate(RunSpec.load_many(spec_path)):
        store.put(spec, {
            "completed": True, "reason": "completed",
            "time": 10 + index, "messages": 100 + index,
        })
    return store


def _judge_store(path: str,
                 info: Dict[str, Any]) -> Tuple[Optional[str], str]:
    """Detection requires *all three* legs of the durability contract.

    The read-only :meth:`~repro.store.JsonlStore.verify` scan must flag
    exactly the injected lines, a recovery load must salvage every
    surviving record while quarantining the corrupt ones, and replaying
    the corrupted WAL into an index
    (:meth:`~repro.store.SqliteStore.ingest`) must quarantine exactly
    the injected lines while ingesting exactly the survivors.
    """
    from ..store import JsonlStore, SqliteStore

    report = JsonlStore(path).verify()
    if report["ok"] or len(report["corrupt"]) != info["corrupted_lines"]:
        return None, (
            f"verify missed the corruption: reported "
            f"{len(report['corrupt'])} corrupt line(s), injected "
            f"{info['corrupted_lines']} ({info})"
        )
    recovered = JsonlStore(path)
    salvaged = len(recovered)
    if salvaged != info["surviving_records"]:
        return None, (
            f"recovery salvaged {salvaged} record(s), expected "
            f"{info['surviving_records']}"
        )
    if len(recovered.quarantined_entries()) != info["corrupted_lines"]:
        return None, "corrupt line was not quarantined"
    with SqliteStore(path + ".sqlite") as index:
        ingest = index.ingest(path)
        if (ingest["ingested"] != info["surviving_records"]
                or ingest["quarantined"] != info["corrupted_lines"]):
            return None, (
                f"sqlite ingest took {ingest['ingested']} record(s) and "
                f"quarantined {ingest['quarantined']}, expected "
                f"{info['surviving_records']}/{info['corrupted_lines']}"
            )
        if not index.verify()["ok"]:
            return None, "sqlite index failed verify after ingest"
    return "store-corruption", (
        f"verify flagged line {info.get('line')} "
        f"({report['corrupt'][0]['reason']}); "
        f"{salvaged} record(s) salvaged and indexed"
    )


def _execute_store_cell(cell: Dict[str, Any]) -> Verdict:
    """Corrupt a scratch store and judge it; the control verifies a
    pristine one, which must come back clean."""
    from ..store import JsonlStore

    with tempfile.TemporaryDirectory(prefix="repro-chaos-store-") as root:
        path = os.path.join(root, "store.jsonl")
        _make_scratch_store(path, cell["seed"])
        if cell["control"]:
            clean = JsonlStore(path).verify()
            if clean["ok"]:
                return None, "clean store verified clean", False
            return ("store-corruption",
                    f"clean store failed verify: {clean['corrupt']}", False)
        fault = STORE_FAULTS[cell["fault"]]()
        rng = derive_rng(cell["seed"], "chaos-store", fault.name,
                         cell["trial"])
        detected, message = _judge_store(path, fault.inject(path, rng))
        return detected, message, True


def _execute_fleet_cell(cell: Dict[str, Any]) -> Verdict:
    """Start a live fleet, inject the cell's fault (nothing for the
    control), wait, and judge its recovery.

    Every cell, the control included, kills its workers on the way out,
    and any exception is the verdict rather than a crash.
    """
    from ..fleet import FleetConfig, start_fleet
    from .fleet_faults import (
        FLEET_FAULTS,
        _fleet_specs,
        _judge_cell,
        _reference_metrics,
    )

    control, trial = cell["control"], cell["trial"]
    specs = _fleet_specs(cell["seed"], 999 if control else trial,
                         cell["specs"])
    reference = _reference_metrics(specs)
    root = tempfile.mkdtemp(prefix="repro-chaos-fleet-")
    fleet = None
    try:
        fleet = start_fleet(root, specs=specs, workers=cell["workers"],
                            config=FleetConfig(
                                lease_ttl=2.0, heartbeat_interval=0.5,
                                backoff_base=0.1, backoff_cap=1.0,
                                max_attempts=5, straggler_factor=4.0,
                                straggler_min_age=1.0, poll_interval=0.02))
        info: Dict[str, Any] = {}
        if not control:
            rng = random.Random(repr((cell["seed"], cell["fault"], trial)))
            info = FLEET_FAULTS[cell["fault"]]().inject(fleet, rng)
        defect = _judge_cell(fleet.campaign, fleet.wait(timeout=120.0),
                             reference, info)
    except Exception as error:  # noqa: BLE001 — verdict, not crash
        defect = f"campaign error: {error!r}"
    finally:
        if fleet is not None:
            fleet.kill_all()
        if not cell["keep_dirs"]:
            shutil.rmtree(root, ignore_errors=True)
    if defect is None:
        return "fleet-recovered", "recovered", not control
    return None, defect, not control


_EXECUTORS = {
    "model": _execute_sim_cell,
    "store": _execute_store_cell,
    "fleet": _execute_fleet_cell,
}


def run_chaos_cell(cell: Dict[str, Any]) -> Verdict:
    """Execute one cell through its matrix's executor."""
    return _EXECUTORS[cell["matrix"]](cell)


def run_chaos_cells(cells: Sequence[Dict[str, Any]]) -> CampaignReport:
    """Run ``cells`` in order, sequentially, and fold them into a report.

    Fault cells become report rows in list order.  Every control is
    counted, and a control judged not ok becomes a false positive.
    """
    report = CampaignReport()
    for cell, (detected, message, fired) in zip(
            cells, run_jobs(run_chaos_cell, cells)):
        expected = tuple(cell["expected"])
        judged = CampaignCell(
            fault=cell["fault"], kind=cell["kind"],
            algorithm=cell["algorithm"], trial=cell["trial"],
            seed=cell["seed"], expected=expected, detected=detected,
            fired=fired, message=message,
            ok=detected in expected if expected else detected is None,
        )
        if not cell["control"]:
            report.cells.append(judged)
            continue
        report.controls += 1
        if not judged.ok:
            report.false_positives.append(judged)
    return report


def run_campaign(
    seed: int = 0,
    trials: int = 3,
    faults: Optional[Sequence[str]] = None,
    n: int = 24,
    consensus_n: int = 9,
    store_faults: Optional[Sequence[str]] = None,
) -> CampaignReport:
    """Run the chaos matrix: every fault × every applicable algorithm ×
    ``trials`` seeds, plus clean control runs of every canonical cell.

    ``faults`` defaults to every registered fault.

    ``store_faults`` selects the artifact-store corruption injectors
    (:mod:`repro.faults.store_faults`); each runs ``trials`` times
    against scratch stores, with a clean-store ``verify`` as the
    matching false-positive control.  When both fault lists are
    defaulted the full matrix runs — every simulation fault and every
    store fault; an explicit ``faults`` selection leaves the store
    matrix off unless ``store_faults`` asks for it.
    """
    if store_faults is None:
        store_faults = sorted(STORE_FAULTS) if faults is None else ()
    if faults is None:
        faults = sorted(FAULTS)
    sizes = {"gossip": n, "consensus": consensus_n}

    cells = []
    for trial in range(trials):
        for name in faults:
            fault = FAULTS[name]()
            kinds = (("gossip", "consensus") if fault.kind == "any"
                     else (fault.kind,))
            cells += [
                chaos_cell("model", name, kind,
                           canonical_algorithm(kind, trial), trial,
                           seed + trial, fault.expects, n=sizes[kind],
                           crashes=fault.needs_crashes,
                           rng=[seed, "chaos", name, kind, trial])
                for kind in kinds
            ]
    # Artifact-store matrix: each store fault corrupts a scratch store;
    # the durability layer (verify + recovery load) must flag it.
    cells += [
        chaos_cell("store", name, "store", "runstore", trial, seed + trial,
                   STORE_FAULTS[name].expects)
        for trial in range(trials) for name in store_faults
    ]
    if store_faults:
        cells.append(chaos_cell("store", "(none)", "store", "runstore", 0,
                                seed, control=True))
    # Clean controls: canonical cells, invariants on, no fault — any
    # violation here is a false positive of the detectors themselves.
    cells += [
        chaos_cell("model", "(none)", kind, algorithm, 0, seed,
                   control=True, n=sizes[kind], crashes=crashes)
        for kind, algorithms in ALGORITHMS.items()
        for algorithm in algorithms for crashes in (False, True)
    ]
    return run_chaos_cells(cells)


def format_campaign(report: CampaignReport) -> str:
    table = render_table(
        ["fault", "kind", "algorithm", "trial", "expected", "detected",
         "ok"],
        [
            [cell.fault, cell.kind, cell.algorithm, cell.trial,
             "|".join(cell.expected) or "(tolerated)",
             cell.detected or "-", cell.ok]
            for cell in report.cells
        ],
        title="Chaos campaign — seeded faults vs. invariant detectors",
    )
    lines = [
        table,
        "",
        f"detection: {report.detected}/{len(report.cells)} "
        f"({report.detection_rate:.0%})  "
        f"controls: {report.controls} clean, "
        f"{len(report.false_positives)} false positive(s)",
    ]
    for cell in report.missed:
        lines.append(
            f"MISSED {cell.fault} [{cell.kind}/{cell.algorithm} trial "
            f"{cell.trial}]: expected {cell.expected}, got "
            f"{cell.detected!r} — {cell.message}"
        )
    for cell in report.false_positives:
        lines.append(
            f"FALSE POSITIVE [{cell.kind}/{cell.algorithm}]: "
            f"{cell.detected} — {cell.message}"
        )
    return "\n".join(lines)
