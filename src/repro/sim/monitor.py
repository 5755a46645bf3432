"""Completion predicates over a running simulation.

The paper: "gossip completes when each process has either crashed or both
(a) received the rumor of every correct process and also (b) stopped sending
messages." A process in an asynchronous system can never *terminate* (it
cannot know it holds every rumor), but it can become quiescent; completion is
therefore a global predicate the simulator — not the processes — evaluates.

Soundness of the quiescence part: when every live process reports
``is_quiescent()`` ("will send nothing unless a message arrives") and the
network holds no in-flight message, no message is ever sent again.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from itertools import chain
from typing import Optional

from .._util import popcount


def quiescent(sim) -> bool:
    """Nothing in flight and every live process quiescent.

    From here on scheduled steps deliver nothing and (by the quiescence
    contract) send nothing, so only a crash can still change the state.
    """
    if sim.network.in_flight:
        return False
    processes = sim.processes
    return all(
        processes[pid].algorithm.is_quiescent() for pid in sim.alive_pids
    )


class CompletionMonitor(ABC):
    """A pluggable global predicate checked by the engine as time advances."""

    #: True when :meth:`check`'s verdict is a pure function of the
    #: simulation *state* (process state, network, live set) and not of
    #: ``sim.now`` itself, so its answer cannot change across steps in
    #: which nothing happens. The time-leap engine collapses the per-step
    #: checks inside a jumped-over gap of inert steps to a single
    #: evaluation for such monitors; for monitors that leave this False
    #: every gap is one step long, so each check is made for real.
    #: (Reading ``sim.now`` for a *timestamp* side effect, as
    #: :class:`GossipCompletionMonitor` does for ``gathering_time``, is
    #: fine — the engine presents the exact step time stepwise execution
    #: would have.)
    leap_safe = False

    @abstractmethod
    def check(self, sim) -> bool:
        """Return True once the execution has completed."""


#: ``GossipCompletionMonitor``'s scope memo before any live set was seen.
_NO_SCOPE = (None, 0)


class GossipCompletionMonitor(CompletionMonitor):
    """Completion for (majority-)gossip runs.

    Requires every live process's algorithm to expose ``rumor_mask`` (an int
    bitmask of known rumors, bit p = rumor of process p) and
    ``is_quiescent()``.

    ``majority=False``: every live process knows the rumor of every live
    process (conservative w.r.t. the paper's "correct process", since the
    live set at any time contains all correct processes).

    ``majority=True``: every live process knows a strict majority
    (``⌊n/2⌋ + 1``) of all rumors — the paper's *majority gossip* from
    Section 5.
    """

    leap_safe = True

    def __init__(self, majority: bool = False) -> None:
        self.majority = majority
        #: First time at which the rumor-gathering condition held (quiescence
        #: may lag behind it); useful for separating the two costs.
        self.gathering_time: Optional[int] = None
        # Pure memo: (alive, its target mask) for the last live set seen,
        # keyed on identity — the engine hands over the same cached
        # frozenset until a crash — plus the pid that failed the last
        # scan. A fork's deep copy holds another frozenset, never the
        # engine's, so it rebuilds.
        self._scope: tuple = _NO_SCOPE
        self._witness: Optional[int] = None

    def _target(self, sim) -> tuple:
        """``(live pids, their rumor bits)``, rebuilt per live set."""
        alive = sim.alive_pids
        scope = self._scope
        if scope[0] is not alive:
            target = 0
            for pid in alive:
                target |= 1 << pid
            scope = self._scope = (alive, target)
            self._witness = None
        return scope

    def gathered(self, sim) -> bool:
        """Exact at every call: a false verdict re-tests the pid that failed
        last time first (O(1) while it still lacks a rumor); a true verdict
        is never latched, because state tampering (chaos runs) can make
        V(p) shrink."""
        alive, target = self._target(sim)
        processes = sim.processes
        candidates = alive
        if self._witness is not None:
            candidates = chain((self._witness,), alive)
        if self.majority:
            need = sim.n // 2 + 1
            for pid in candidates:
                if popcount(processes[pid].algorithm.rumor_mask) < need:
                    self._witness = pid
                    return False
            return True
        for pid in candidates:
            if target & ~processes[pid].algorithm.rumor_mask:
                self._witness = pid
                return False
        return True

    def check(self, sim) -> bool:
        if self.gathering_time is not None:
            # Timestamped already, so only the verdict is wanted: the
            # cheap half first, and only a quiescent system pays the O(n)
            # true-verdict scan. Both halves are still read from live
            # state on every call — nothing is latched.
            return quiescent(sim) and self.gathered(sim)
        if not self.gathered(sim):
            return False
        self.gathering_time = sim.now
        return quiescent(sim)


class PredicateMonitor(CompletionMonitor):
    """Adapt an arbitrary callable ``sim -> bool`` (used by tests/consensus).

    Pass ``state_driven=True`` when the predicate reads only simulation
    state (not ``sim.now``), which lets the time-leap engine collapse the
    checks inside a jumped-over gap; the default assumes nothing.
    """

    def __init__(self, predicate, name: str = "predicate",
                 state_driven: bool = False) -> None:
        self.predicate = predicate
        self.name = name
        self.leap_safe = bool(state_driven)

    def check(self, sim) -> bool:
        return bool(self.predicate(sim))
