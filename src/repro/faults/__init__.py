"""Fault injection and chaos campaigns.

This package is the offensive half of the robustness story whose
defensive half lives in :mod:`repro.sim.invariants`.  It holds three
matrices, numbered as ``repro chaos --matrix model|fleet|byzantine``
lists them.

The first, ``model`` (:mod:`repro.faults.campaign`): seeded, named
fault injectors that deliberately break the paper's execution model
(:mod:`repro.faults.injectors`), run against the canonical
algorithm/scenario cells with each fault armed, asserting the invariant
checkers catch every seeded violation — a self-test of the detectors.
Its on-disk cells target the artifact store: seeded corruption
injectors (:mod:`repro.faults.store_faults`) tear or bit-flip a scratch
``JsonlStore`` log and the campaign asserts the store's durability layer
(checksum verify + recovery quarantine) detects every corruption.

The second, ``fleet`` (:mod:`repro.faults.fleet_faults`), breaks the
fleet protocol — leases, heartbeats, re-issue — against live worker
processes and asserts the campaign still finishes with a clean store.

The third, ``byzantine`` (:mod:`repro.faults.byzantine_faults`),
attacks in-band: each cell runs a canonical algorithm under the
:class:`~repro.adversary.byzantine.ByzantineAdversary` with one behavior
active — equivocation, tampering, silence or identity forgery — and is
classified *tolerated* (run completes, honest invariants clean) or
*detected* (a Byzantine-aware invariant names the corruption).

Each matrix is a list of cells — plain dicts — and one runner executes
them all: :func:`repro.faults.campaign.run_chaos_cells` hands the list
to :func:`repro.experiments.campaign.run_jobs`, whose job,
:func:`~repro.faults.campaign.run_chaos_cell`, dispatches on the cell's
matrix to the simulation, store or fleet executor, and folds the
outcomes (controls included) into one :class:`CampaignReport`.
"""

from .byzantine_faults import (
    AgreementCell,
    BYZANTINE_MATRIX,
    byzantine_agreement_grid,
    format_agreement_grid,
    run_byzantine_campaign,
)
from .campaign import (
    CampaignCell,
    CampaignReport,
    format_campaign,
    run_campaign,
)
from .injectors import (
    FAULTS,
    DecisionFlipFault,
    DelayBurstFault,
    FaultInjector,
    ForeignRumorFault,
    ForgedMessageFault,
    ForgedMessageLiveFault,
    MessageDuplicationFault,
    MessageLossFault,
    RumorLossFault,
    ScheduleStallFault,
    SilentStallFault,
    StepBudgetFault,
)
from .fleet_faults import (
    FLEET_FAULTS,
    DuplicateClaimFault,
    FleetFault,
    HeartbeatStallFault,
    LeaseTamperFault,
    WorkerKillFault,
    run_fleet_campaign,
)
from .store_faults import (
    STORE_FAULTS,
    ChecksumFlipFault,
    StoreFault,
    TornWriteFault,
)

__all__ = [
    "AgreementCell",
    "BYZANTINE_MATRIX",
    "CampaignCell",
    "CampaignReport",
    "ChecksumFlipFault",
    "DecisionFlipFault",
    "DelayBurstFault",
    "DuplicateClaimFault",
    "FAULTS",
    "FLEET_FAULTS",
    "FaultInjector",
    "FleetFault",
    "ForeignRumorFault",
    "ForgedMessageFault",
    "ForgedMessageLiveFault",
    "HeartbeatStallFault",
    "LeaseTamperFault",
    "MessageDuplicationFault",
    "MessageLossFault",
    "RumorLossFault",
    "STORE_FAULTS",
    "ScheduleStallFault",
    "SilentStallFault",
    "StepBudgetFault",
    "StoreFault",
    "TornWriteFault",
    "WorkerKillFault",
    "byzantine_agreement_grid",
    "format_agreement_grid",
    "format_campaign",
    "run_byzantine_campaign",
    "run_campaign",
    "run_fleet_campaign",
]
