"""Fault injection and chaos campaigns.

This package is the offensive half of the robustness story whose
defensive half lives in :mod:`repro.sim.invariants`.  It holds two
matrices, numbered as ``repro chaos --matrix model|fleet`` lists them.

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

Each matrix is a list of cells — plain dicts — and one runner executes
them all: :func:`repro.faults.campaign.run_chaos_cells` hands the list
to :func:`repro.experiments.campaign.run_jobs`, whose job,
:func:`~repro.faults.campaign.run_chaos_cell`, dispatches on the cell's
matrix to the simulation, store or fleet executor, and folds the
outcomes (controls included) into one :class:`CampaignReport`.
"""

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
    "RumorLossFault",
    "STORE_FAULTS",
    "ScheduleStallFault",
    "SilentStallFault",
    "StepBudgetFault",
    "StoreFault",
    "TornWriteFault",
    "WorkerKillFault",
    "format_campaign",
    "run_campaign",
    "run_fleet_campaign",
]
