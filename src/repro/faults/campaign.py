"""Chaos campaigns: prove the invariant checkers catch seeded faults.

A campaign is a self-test of the robustness plane.  For every registered
fault and every trial it builds a canonical cell (EARS/SEARS/TEARS
gossip, Ben-Or consensus) with the kind's safety invariants attached
(``RunSpec(check_invariants=True)``), arms the fault on the built run,
executes in strict mode, and records which detector fired:

* a fault whose ``expects`` names invariants is *detected* iff the run
  raised :class:`~repro.sim.errors.InvariantViolation` with one of those
  names;
* a liveness fault (``expects = ("liveness",)``) is detected iff strict
  mode raised :class:`~repro.sim.errors.IncompleteRunError`;
* a tolerance fault (empty ``expects``) passes iff the run completed
  with **no** detector firing.

Alongside the fault matrix the campaign runs each canonical cell clean
(invariants on, no fault) — any violation there is a false positive and
fails the campaign.  ``repro chaos`` exits nonzero unless detection is
100% with zero false positives.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..analysis.tables import render_table
from ..sim.errors import IncompleteRunError, InvariantViolation
from ..sim.monitor import PredicateMonitor
from ..sim.rng import derive_rng
from ..spec.builder import build
from ..spec.runspec import RunSpec
from .injectors import FAULTS, make_fault
from .store_faults import STORE_FAULTS, make_store_fault

__all__ = [
    "CampaignCell",
    "CampaignReport",
    "format_campaign",
    "run_campaign",
]

#: The campaign's gossip portfolio (the paper's three efficient algorithms).
GOSSIP_ALGORITHMS: Tuple[str, ...] = ("ears", "sears", "tears")
CONSENSUS_ALGORITHMS: Tuple[str, ...] = ("ben-or",)

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


def _gossip_spec(algorithm: str, n: int, seed: int,
                 with_crashes: bool) -> RunSpec:
    return RunSpec(
        kind="gossip", algorithm=algorithm, n=n, f=n // 4, d=2, delta=2,
        seed=seed, crashes=(n // 8 if with_crashes else None),
        check_invariants=True,
    )


def _consensus_spec(algorithm: str, n: int, seed: int,
                    with_crashes: bool) -> RunSpec:
    return RunSpec(
        kind="consensus", algorithm=algorithm, n=n, seed=seed,
        crashes=(n // 4 if with_crashes else None),
        check_invariants=True,
    )


def _spec_for(kind: str, algorithm: str, n: int, consensus_n: int,
              seed: int, with_crashes: bool) -> RunSpec:
    if kind == "gossip":
        return _gossip_spec(algorithm, n, seed, with_crashes)
    return _consensus_spec(algorithm, consensus_n, seed, with_crashes)


def _execute_cell(spec: RunSpec, fault, rng) -> Tuple[Optional[str], str]:
    """Build, arm, run strictly; returns (detector-fired, message)."""
    built = build(spec)
    fault.arm(built, rng)
    if fault.expects and fault.expects != ("liveness",):
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
        return exc.invariant, str(exc)
    except IncompleteRunError as exc:
        return "liveness", str(exc)
    return None, "run completed with no detector firing"


_SCRATCH_SPECS: Dict[Tuple[int, int], List[RunSpec]] = {}


def _scratch_specs(records: int, seed: int) -> List[RunSpec]:
    """The spec list every scratch store of one (records, seed) matrix
    cell shares, built once and round-tripped through the same
    :meth:`RunSpec.load_many` path ``repro batch`` uses (so the scratch
    records exercise exactly the serialized-spec provenance format).
    """
    key = (records, seed)
    specs = _SCRATCH_SPECS.get(key)
    if specs is None:
        import json

        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False, encoding="utf-8"
        ) as handle:
            json.dump([
                RunSpec(kind="gossip", algorithm="ears", n=16, f=4,
                        seed=seed * 1000 + index).to_dict()
                for index in range(records)
            ], handle)
            spec_path = handle.name
        try:
            specs = RunSpec.load_many(spec_path)
        finally:
            os.unlink(spec_path)
        _SCRATCH_SPECS[key] = specs
    return specs


def _make_scratch_store(path: str, records: int, seed: int):
    """A small real store: genuine specs, fabricated (cheap) metrics.

    Corruption detection is purely syntactic — no simulation needs to
    run to exercise it — so the records carry synthetic metrics stamped
    exactly like real ones (schema, spec hash, CRC).
    """
    from ..store import JsonlStore

    store = JsonlStore(path)
    for index, spec in enumerate(_scratch_specs(records, seed)):
        store.put(spec, {
            "completed": True, "reason": "completed",
            "time": 10 + index, "messages": 100 + index,
        })
    return store


def _execute_store_cell(fault, trials_dir: str, trial: int, seed: int,
                        records: int = 4) -> Tuple[Optional[str], str, bool]:
    """Run one store-fault cell; returns (detected, message, fired).

    Detection requires *all three* legs of the durability contract: the
    read-only :meth:`~repro.store.JsonlStore.verify` scan must flag
    exactly the injected lines, a recovery load must salvage every
    surviving record while quarantining the corrupt ones, and replaying
    the corrupted WAL into an index
    (:meth:`~repro.store.SqliteStore.ingest`) must quarantine exactly
    the injected lines while ingesting exactly the survivors.
    """
    from ..store import JsonlStore, SqliteStore

    path = os.path.join(trials_dir, f"{fault.name}-{trial}.jsonl")
    _make_scratch_store(path, records, seed)
    rng = derive_rng(seed, "chaos-store", fault.name, trial)
    info = fault.inject(path, rng)

    report = JsonlStore(path).verify()
    if report["ok"] or len(report["corrupt"]) != info["corrupted_lines"]:
        return None, (
            f"verify missed the corruption: reported "
            f"{len(report['corrupt'])} corrupt line(s), injected "
            f"{info['corrupted_lines']} ({info})"
        ), True
    recovered = JsonlStore(path)
    salvaged = len(recovered)
    if salvaged != info["surviving_records"]:
        return None, (
            f"recovery salvaged {salvaged} record(s), expected "
            f"{info['surviving_records']}"
        ), True
    if len(recovered.quarantined_entries()) != info["corrupted_lines"]:
        return None, "corrupt line was not quarantined", True
    with SqliteStore(path + ".sqlite") as index:
        ingest = index.ingest(path)
        if (ingest["ingested"] != info["surviving_records"]
                or ingest["quarantined"] != info["corrupted_lines"]):
            return None, (
                f"sqlite ingest took {ingest['ingested']} record(s) and "
                f"quarantined {ingest['quarantined']}, expected "
                f"{info['surviving_records']}/{info['corrupted_lines']}"
            ), True
        if not index.verify()["ok"]:
            return None, "sqlite index failed verify after ingest", True
    return "store-corruption", (
        f"verify flagged line {info.get('line')} "
        f"({report['corrupt'][0]['reason']}); "
        f"{salvaged} record(s) salvaged and indexed"
    ), True


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

    ``faults`` defaults to every registered fault except the explicitly
    out-of-model :class:`~repro.faults.injectors.MessageLossFault`
    toggle (whose impact is algorithm-dependent by design).

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
        faults = sorted(name for name in FAULTS if name != "message-loss")
    report = CampaignReport()

    for trial in range(trials):
        for fault_name in faults:
            prototype = make_fault(fault_name)
            kinds = (
                ("gossip", "consensus") if prototype.kind == "any"
                else (prototype.kind,)
            )
            for kind in kinds:
                algorithms = (
                    GOSSIP_ALGORITHMS if kind == "gossip"
                    else CONSENSUS_ALGORITHMS
                )
                algorithm = algorithms[trial % len(algorithms)]
                cell_seed = seed + trial
                fault = make_fault(fault_name)
                rng = derive_rng(seed, "chaos", fault_name, kind, trial)
                spec = _spec_for(kind, algorithm, n, consensus_n,
                                 cell_seed, fault.needs_crashes)
                detected, message = _execute_cell(spec, fault, rng)
                expected = tuple(fault.expects)
                ok = (
                    detected in expected if expected else detected is None
                )
                report.cells.append(CampaignCell(
                    fault=fault_name, kind=kind, algorithm=algorithm,
                    trial=trial, seed=cell_seed, expected=expected,
                    detected=detected, fired=fault.fired, ok=ok,
                    message=message,
                ))

    # Artifact-store matrix: each store fault corrupts a scratch store;
    # the durability layer (verify + recovery load) must flag it.
    if store_faults:
        trials_dir = tempfile.mkdtemp(prefix="repro-chaos-store-")
        try:
            for trial in range(trials):
                for fault_name in store_faults:
                    fault = make_store_fault(fault_name)
                    detected, message, fired = _execute_store_cell(
                        fault, trials_dir, trial, seed + trial,
                    )
                    expected = tuple(fault.expects)
                    report.cells.append(CampaignCell(
                        fault=fault_name, kind="store",
                        algorithm="runstore", trial=trial,
                        seed=seed + trial, expected=expected,
                        detected=detected, fired=fired,
                        ok=detected in expected, message=message,
                    ))
            # False-positive control: a pristine store must verify clean.
            from ..store import JsonlStore

            clean_path = os.path.join(trials_dir, "clean-control.jsonl")
            _make_scratch_store(clean_path, 4, seed)
            report.controls += 1
            clean = JsonlStore(clean_path).verify()
            if not clean["ok"]:
                report.false_positives.append(CampaignCell(
                    fault="(none)", kind="store", algorithm="runstore",
                    trial=0, seed=seed, expected=(), fired=False,
                    ok=False, detected="store-corruption",
                    message=f"clean store failed verify: {clean['corrupt']}",
                ))
        finally:
            shutil.rmtree(trials_dir, ignore_errors=True)

    # Clean controls: canonical cells, invariants on, no fault — any
    # violation here is a false positive of the detectors themselves.
    controls = (
        [("gossip", algorithm, crashed)
         for algorithm in GOSSIP_ALGORITHMS for crashed in (False, True)]
        + [("consensus", algorithm, crashed)
           for algorithm in CONSENSUS_ALGORITHMS for crashed in (False, True)]
    )
    for kind, algorithm, with_crashes in controls:
        spec = _spec_for(kind, algorithm, n, consensus_n, seed, with_crashes)
        report.controls += 1
        try:
            build(spec).run()
        except (InvariantViolation, IncompleteRunError) as exc:
            report.false_positives.append(CampaignCell(
                fault="(none)", kind=kind, algorithm=algorithm, trial=0,
                seed=seed, expected=(), fired=False, ok=False,
                detected=getattr(exc, "invariant", "liveness"),
                message=str(exc),
            ))
    return report


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
