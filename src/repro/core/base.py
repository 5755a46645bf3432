"""Common base class for the gossip algorithms.

Every gossip algorithm in the paper maintains a rumor collection V(p); the
base class owns it, exposes the ``rumor_mask`` the completion monitors read,
and provides the factory helper used to instantiate one algorithm object per
process.
"""

from __future__ import annotations

import copy
from typing import Any, Callable, List, Optional, Sequence

from ..sim.process import Algorithm
from .rumors import RumorSet


class GossipAlgorithm(Algorithm):
    """Base for gossip processes: owns V(p) and the public inspection API."""

    def __init__(self, pid: int, n: int, f: int,
                 rumor_payload: Any = None) -> None:
        self.pid = pid
        self.n = n
        self.f = f
        self.rumors = RumorSet.initial(pid, rumor_payload)

    @property
    def rumor_mask(self) -> int:
        """Bitmask of rumors this process has collected (bit p = rumor of p)."""
        return self.rumors.mask

    def knows_rumor_of(self, pid: int) -> bool:
        return pid in self.rumors

    def rumor_count(self) -> int:
        return len(self.rumors)

    def summary(self) -> dict:
        return {
            "pid": self.pid,
            "rumors": self.rumor_count(),
            "quiescent": self.is_quiescent(),
        }

    def clone(self) -> "GossipAlgorithm":
        """O(state) copy for simulation forking.

        Every core gossip algorithm keeps exactly one shared-mutable object
        — its :class:`RumorSet` — plus immutable scalars (counters, flags,
        params objects) and build-once arrays (the packed Π1/Π2 of TEARS
        and the deterministic majority scheme, which ``Context.send_many``
        queues as they are, without a copy; nothing changes them). A
        shallow ``copy.copy`` plus a fresh rumor set is therefore a
        faithful independent copy.

        Subclasses that add mutable containers beyond the rumor set must
        override this (or fall back to ``copy.deepcopy(self)``).
        """
        dup = copy.copy(self)
        dup.rumors = self.rumors.clone()
        return dup


AlgorithmFactory = Callable[[int], Algorithm]


def make_processes(
    n: int,
    f: int,
    algorithm_class: type,
    payloads: Optional[Sequence[Any]] = None,
    **kwargs: Any,
) -> List[Algorithm]:
    """Instantiate one algorithm object per pid.

    ``payloads`` optionally supplies per-process rumor content (consensus
    passes votes); plain gossip runs leave it None and the rumor is just the
    originator's identity.
    """
    processes = []
    for pid in range(n):
        payload = payloads[pid] if payloads is not None else None
        processes.append(
            algorithm_class(pid=pid, n=n, f=f, rumor_payload=payload, **kwargs)
        )
    return processes
