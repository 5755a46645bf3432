"""Checkers for the paper's gossip correctness requirements.

The gossip problem (System Model section) requires: (1) *rumor gathering* —
every correct process eventually collects every correct process's rumor; (2)
*validity* — only genuinely initiated rumors appear in collections; (3)
*quiescence* — every process eventually stops sending. Majority gossip
(Section 5) weakens (1) to a strict majority of all rumors.

These functions evaluate the requirements over a (finished or running)
simulation; tests and experiments assert on them.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .._util import popcount
from .rumors import mask_of


def correct_pids(sim) -> frozenset:
    """Processes that never crashed (the paper's *correct* processes).

    Evaluated on a finished execution this is exactly the correct set; midway
    it is the conservative superset of it.
    """
    return frozenset(sim.alive_pids)


def gathering_holds(sim, correct: Optional[Iterable[int]] = None) -> bool:
    """Requirement (1): every correct process knows every correct rumor."""
    pids = frozenset(correct) if correct is not None else correct_pids(sim)
    target = mask_of(pids)
    return all(
        not (target & ~sim.algorithm(pid).rumor_mask) for pid in pids
    )


def majority_gathering_holds(sim,
                             correct: Optional[Iterable[int]] = None) -> bool:
    """Majority gossip's requirement: ⌊n/2⌋+1 rumors at each correct process."""
    pids = frozenset(correct) if correct is not None else correct_pids(sim)
    need = sim.n // 2 + 1
    return all(popcount(sim.algorithm(pid).rumor_mask) >= need for pid in pids)


def validity_holds(sim, initial_payloads: Optional[dict] = None) -> bool:
    """Requirement (2): collections contain only initiated rumors.

    Structurally, any set bit beyond n−1 would be a fabricated rumor. When
    the run attached payloads, additionally check that every stored payload
    equals the originator's initial payload (no corruption en route).
    """
    bound = (1 << sim.n) - 1
    for pid in range(sim.n):
        algorithm = sim.algorithm(pid)
        if algorithm.rumor_mask & ~bound:
            return False
        if initial_payloads is not None:
            for origin, value in algorithm.rumors.payloads.items():
                if origin not in algorithm.rumors:
                    return False
                if value != initial_payloads.get(origin):
                    return False
    return True


def quiescence_holds(sim) -> bool:
    """Requirement (3) at this instant: nothing in flight, nobody will send."""
    if sim.network.in_flight:
        return False
    return all(sim.algorithm(pid).is_quiescent() for pid in sim.alive_pids)


def own_rumor_retained(sim) -> bool:
    """Sanity invariant: a process never forgets its own rumor."""
    return all(
        pid in sim.algorithm(pid).rumors for pid in range(sim.n)
    )
