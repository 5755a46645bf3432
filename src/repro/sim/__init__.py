"""Asynchronous discrete-step simulation substrate.

Implements the paper's system model: ``n`` crash-prone message-passing
processes driven by an adversary that controls scheduling, message delays and
crashes. The synchrony parameters ``d`` (max message delay) and ``δ`` (max
scheduling gap) are measured properties of each execution, never inputs to
algorithm code.
"""

from .engine import RunResult, SimSnapshot, Simulation
from .errors import (
    AlgorithmError,
    ConfigurationError,
    CrashBudgetExceeded,
    IncompleteRunError,
    InvalidDelayError,
    InvalidScheduleError,
    InvariantViolation,
    SimulationError,
)
from .events import (
    BitMeterObserver,
    Observer,
    StepProfiler,
    TraceObserver,
)
from .invariants import (
    BoundConsistencyInvariant,
    ConsensusInvariant,
    CrashConsistencyInvariant,
    GossipValidityInvariant,
    Invariant,
    default_invariants,
    state_digest,
)
from .message import Message
from .metrics import Metrics
from .monitor import (
    CompletionMonitor,
    GossipCompletionMonitor,
    PredicateMonitor,
    QuiescenceMonitor,
)
from .network import Network
from .process import (
    Algorithm,
    Context,
    ProcessHandle,
    ProcessStatus,
    SubContext,
)
from .rng import clone_rng, derive_rng, derive_seed
from .scheduler import (
    EveryStep,
    ExplicitSchedule,
    RoundRobinWindows,
    SchedulePlan,
    StaggeredWindows,
    SubsetEveryStep,
)
from .trace import EventTrace, TraceEvent

__all__ = [
    "Algorithm",
    "AlgorithmError",
    "BitMeterObserver",
    "BoundConsistencyInvariant",
    "CompletionMonitor",
    "ConfigurationError",
    "ConsensusInvariant",
    "Context",
    "CrashBudgetExceeded",
    "CrashConsistencyInvariant",
    "EventTrace",
    "EveryStep",
    "ExplicitSchedule",
    "GossipCompletionMonitor",
    "GossipValidityInvariant",
    "IncompleteRunError",
    "InvalidDelayError",
    "InvalidScheduleError",
    "Invariant",
    "InvariantViolation",
    "Message",
    "Metrics",
    "Network",
    "Observer",
    "PredicateMonitor",
    "ProcessHandle",
    "ProcessStatus",
    "QuiescenceMonitor",
    "RoundRobinWindows",
    "RunResult",
    "SchedulePlan",
    "SimSnapshot",
    "Simulation",
    "SimulationError",
    "StaggeredWindows",
    "StepProfiler",
    "SubContext",
    "SubsetEveryStep",
    "TraceEvent",
    "TraceObserver",
    "clone_rng",
    "default_invariants",
    "derive_rng",
    "derive_seed",
    "state_digest",
]
