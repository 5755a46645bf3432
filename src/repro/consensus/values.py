"""Record types shared across the consensus implementation."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

#: An instance tag orders the embedded gossip instances lexicographically:
#: (round, voting, stage) with voting ∈ {1: estimate, 2: preference, 3: coin}
#: and stage ∈ {0, 1, 2} (the three sequential gossips inside one get-core).
InstanceTag = Tuple[int, int, int]

VOTING_ESTIMATE = 1
VOTING_PREFERENCE = 2
VOTING_COIN = 3

#: The ⊥ preference: "no estimate had a majority in my view".
BOTTOM = None


def first_instance() -> InstanceTag:
    return (1, VOTING_ESTIMATE, 0)



@dataclass
class Envelope:
    """The wire format of every consensus message.

    ``inner`` is whatever the embedded gossip algorithm put on the wire for
    ``instance``. ``history`` snapshots the sender's completed get-core
    stage outcomes so receivers can catch up asynchronously (Section 6's
    "history of all prior completed calls to gossip and get-core").
    """

    instance: Optional[InstanceTag]
    inner: Any
    history: Dict[InstanceTag, Dict[int, Any]] = field(default_factory=dict)
    decided: Optional[Any] = None
    probe: bool = False


@dataclass
class ConsensusRun:
    """Outcome of one consensus execution plus complexity measures."""

    gossip: str
    n: int
    f: int
    completed: bool
    reason: str
    decision_time: Optional[int]
    messages: int
    messages_by_kind: Dict[str, int]
    decisions: Dict[int, Any]
    rounds_used: int
    agreement: bool
    validity: bool
    realized_d: int
    realized_delta: int
    crashes: int
    sim: Any = None
