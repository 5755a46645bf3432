"""Result types produced by executing a spec (or a legacy entry point)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..sim.engine import RunResult, Simulation

__all__ = ["GossipRun"]


@dataclass
class GossipRun:
    """Outcome of a gossip execution plus the complexity measurements."""

    algorithm: str
    n: int
    f: int
    completed: bool
    reason: str
    completion_time: Optional[int]
    gathering_time: Optional[int]
    messages: int
    messages_by_kind: Dict[str, int]
    #: Estimated payload bits sent; 0 unless measure_bits=True was passed.
    bits: int
    realized_d: int
    realized_delta: int
    crashes: int
    result: RunResult
    sim: Simulation
