"""The Byzantine chaos matrix: behavior cells plus an agreement grid.

The third ``repro chaos`` matrix (alongside ``model`` and ``fleet``).
Where the model matrix arms out-of-band :class:`FaultInjector` hooks,
this matrix attacks *in-band*: every cell runs a canonical algorithm
under the :class:`~repro.adversary.byzantine.ByzantineAdversary` with a
single behavior active, and the verdict is a classification:

* **tolerated** — the run completes, every honest-scoped invariant holds
  and honest metrics are recorded (silence everywhere; equivocation
  against gossip, whose validity is per-receiver and monotone);
* **detected** — an invariant names the corruption with the offending
  pid and step (tampering via ``gossip-validity`` /
  ``consensus-integrity``, equivocation against consensus via the
  ``consensus-equivocation`` wire net, identity forgery via
  ``traffic-provenance``).

Each matrix run also executes an uninjected control per canonical cell —
the same Byzantine adversary with ``b = 0`` — which must be violation
free; anything it trips is a false positive of the detectors.  The
matrix is a cell list run by :func:`repro.faults.campaign.run_chaos_cells`
on the model matrix's simulation executor.

The module also carries the paper-facing experiment the adversary was
built for: :func:`byzantine_agreement_grid` runs Ben-Or and
Canetti–Rabin across ``(n, f, b)`` cells under value-attacking behaviors
and records which cells keep agreement (run completes with the consensus
invariants clean) versus which lose it and how.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.tables import render_table
from ..sim.errors import IncompleteRunError, InvariantViolation
from ..spec.builder import build
from ..spec.runspec import RunSpec
from .campaign import (
    ALGORITHMS,
    CampaignReport,
    canonical_algorithm,
    chaos_cell,
    run_chaos_cells,
)

__all__ = [
    "AgreementCell",
    "BYZANTINE_MATRIX",
    "byzantine_agreement_grid",
    "format_agreement_grid",
    "run_byzantine_campaign",
]

#: behavior -> {kind -> expected detectors} (empty tuple = tolerated).
#: These buckets are deterministic across seeds: the wire nets judge
#: corrupt traffic at delivery time, so detection does not depend on the
#: attack actually breaking an agreement first.
BYZANTINE_MATRIX: Dict[str, Dict[str, Tuple[str, ...]]] = {
    "tamper": {
        "gossip": ("gossip-validity",),
        "consensus": ("consensus-integrity",),
    },
    "equivocate": {
        # Gossip validity is per-receiver: a narrowed (true-subset) claim
        # to one destination conflicts with the full fanout but corrupts
        # no honest state, so gossip tolerates it by design.
        "gossip": (),
        "consensus": ("consensus-equivocation",),
    },
    "forge": {
        "gossip": ("traffic-provenance",),
        "consensus": ("traffic-provenance",),
    },
    "silence": {
        # Omission is within the crash-fault envelope b <= f: honest
        # gossip completes among honest pids, Ben-Or still terminates.
        "gossip": (),
        "consensus": (),
    },
}


def run_byzantine_campaign(
    seed: int = 0,
    trials: int = 3,
    behaviors: Optional[Sequence[str]] = None,
    n: int = 24,
    consensus_n: int = 9,
    b: int = 3,
    consensus_b: int = 2,
) -> CampaignReport:
    """Run the Byzantine matrix: every behavior × gossip and consensus ×
    ``trials`` seeds, plus ``b = 0`` controls of every canonical cell.

    Gossip cells rotate through EARS/SEARS/TEARS per trial (as the model
    matrix does); consensus cells run Ben-Or, whose wire nets make the
    classification deterministic.  ``b`` / ``consensus_b`` must respect
    the canonical fault budgets (``f = n//4`` for gossip, ``(n-1)//2``
    for consensus).
    """
    if behaviors is None:
        behaviors = sorted(BYZANTINE_MATRIX)
    else:
        unknown = [x for x in behaviors if x not in BYZANTINE_MATRIX]
        if unknown:
            raise KeyError(
                f"unknown Byzantine behaviors {unknown}; choose from "
                f"{sorted(BYZANTINE_MATRIX)}"
            )
    sizes = {"gossip": {"n": n, "b": b},
             "consensus": {"n": consensus_n, "b": consensus_b}}
    cells = [
        chaos_cell("byzantine", f"byz-{behavior}", kind,
                   canonical_algorithm(kind, trial), trial, seed + trial,
                   BYZANTINE_MATRIX[behavior][kind], behaviors=[behavior],
                   **sizes[kind])
        for trial in range(trials) for behavior in behaviors
        for kind in ("gossip", "consensus")
    ]
    # Uninjected controls: the Byzantine adversary with b=0 must be
    # behaviorally invisible — a violation here is a detector false
    # positive (or a b=0 corruption leak).
    cells += [
        chaos_cell("byzantine", "(none)", kind, algorithm, 0, seed,
                   control=True, n=sizes[kind]["n"], b=0,
                   behaviors=sorted(BYZANTINE_MATRIX))
        for kind, algorithms in ALGORITHMS.items()
        for algorithm in algorithms
    ]
    return run_chaos_cells(cells)


# -- the (n, f, b) agreement grid ----------------------------------------- #

#: protocol label -> spec algorithm name (Canetti–Rabin runs over its
#: canonical all-to-all transport).
AGREEMENT_PROTOCOLS: Tuple[Tuple[str, str], ...] = (
    ("ben-or", "ben-or"),
    ("canetti-rabin", "all-to-all"),
)

#: Value-attacking behavior set for the grid: the question is whether
#: agreement survives lies, not whether it survives omission.
GRID_BEHAVIORS: Tuple[str, ...] = ("tamper", "equivocate")


@dataclass
class AgreementCell:
    """One (protocol, n, f, b) execution of the agreement experiment."""

    protocol: str
    n: int
    f: int
    b: int
    seed: int
    #: True iff the run completed with the consensus invariants clean —
    #: honest validity and honest agreement both held.
    agreement: bool
    #: "agreement", "violation:<invariant>" or "incomplete:<reason>".
    outcome: str


def byzantine_agreement_grid(
    seed: int = 0,
    behaviors: Sequence[str] = GRID_BEHAVIORS,
    sizes: Sequence[int] = (7, 9),
    max_steps: int = 4000,
) -> List[AgreementCell]:
    """Which ``(n, f, b)`` cells keep agreement under Byzantine attack?

    For each protocol and each ``n`` the grid sweeps ``b`` from 0 to the
    crash budget ``f = (n-1)//2`` (endpoints plus midpoint), running the
    protocol under ``behaviors`` with invariants armed.  Agreement *kept*
    means the run completed with every honest-scoped consensus invariant
    clean; a violation or a liveness failure records how the cell lost.

    This is an experiment, not a self-test: both protocols tolerate only
    crash faults by design (no signatures, no authenticated channels),
    so cells with ``b > 0`` are *expected* to lose agreement under
    value attacks — the grid documents the boundary.
    """
    cells: List[AgreementCell] = []
    for protocol, algorithm in AGREEMENT_PROTOCOLS:
        for cell_n in sizes:
            budget = (cell_n - 1) // 2
            bs = sorted({0, budget // 2, budget})
            for cell_b in bs:
                spec = RunSpec(
                    kind="consensus", algorithm=algorithm, n=cell_n,
                    seed=seed, check_invariants=True, max_steps=max_steps,
                    adversary={"name": "byzantine", "b": cell_b,
                               "behaviors": list(behaviors)},
                )
                try:
                    build(spec).run()
                except InvariantViolation as exc:
                    outcome = f"violation:{exc.invariant}"
                except IncompleteRunError as exc:
                    outcome = f"incomplete:{exc.reason}"
                else:
                    outcome = "agreement"
                cells.append(AgreementCell(
                    protocol=protocol, n=cell_n, f=budget, b=cell_b,
                    seed=seed, agreement=(outcome == "agreement"),
                    outcome=outcome,
                ))
    return cells


def format_agreement_grid(cells: Sequence[AgreementCell]) -> str:
    table = render_table(
        ["protocol", "n", "f", "b", "agreement", "outcome"],
        [[c.protocol, c.n, c.f, c.b, c.agreement, c.outcome]
         for c in cells],
        title="Byzantine agreement grid — which (n, f, b) keep agreement",
    )
    kept = sum(1 for c in cells if c.agreement)
    return f"{table}\n\nagreement kept in {kept}/{len(cells)} cells"
