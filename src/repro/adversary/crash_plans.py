"""Oblivious crash plans: who crashes, and when, fixed before the execution.

A crash plan is a finite table ``time -> set of pids`` with at most ``f``
victims in total. Constructors cover the fault scenarios the benchmarks
sweep: no failures, independent random crash times, a simultaneous wave, and
a targeted list.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from ..sim.errors import ConfigurationError
from ..sim.rng import derive_rng


class CrashPlan:
    """An explicit schedule of crash events."""

    def __init__(self, events: Optional[Dict[int, Set[int]]] = None) -> None:
        self._events: Dict[int, Set[int]] = {
            int(t): set(pids) for t, pids in (events or {}).items() if pids
        }
        negative = sorted(t for t in self._events if t < 0)
        if negative:
            raise ConfigurationError(
                f"crash plan has negative crash times {negative}")
        seen: Set[int] = set()
        for pids in self._events.values():
            overlap = seen & pids
            if overlap:
                raise ConfigurationError(
                    f"crash plan crashes pids {sorted(overlap)} twice"
                )
            seen |= pids
        self._victims = frozenset(seen)
        self._times = sorted(self._events)
        self._last_time = self._times[-1] if self._times else -1

    @property
    def victims(self) -> frozenset:
        """All pids that crash at some point under this plan."""
        return self._victims

    @property
    def total(self) -> int:
        return len(self._victims)

    def crashes_at(self, t: int) -> Set[int]:
        return set(self._events.get(t, ()))

    def has_pending(self, t: int) -> bool:
        """True if some crash fires at time ``>= t``."""
        return t <= self._last_time

    def next_event_at(self, t: int) -> Optional[int]:
        """Earliest crash time ``>= t``, or ``None`` once the plan is
        exhausted (the time-leap protocol's crash component)."""
        idx = bisect_left(self._times, t)
        if idx == len(self._times):
            return None
        return self._times[idx]

    def events(self) -> List[Tuple[int, Set[int]]]:
        return sorted((t, set(p)) for t, p in self._events.items())


def no_crashes() -> CrashPlan:
    """The failure-free plan."""
    return CrashPlan({})


def crash_at(events: Dict[int, Iterable[int]]) -> CrashPlan:
    """Explicit plan from ``{time: pids}``."""
    return CrashPlan({t: set(pids) for t, pids in events.items()})


def random_crashes(
    n: int,
    count: int,
    horizon: int,
    seed: int = 0,
    candidates: Optional[Sequence[int]] = None,
) -> CrashPlan:
    """``count`` victims chosen uniformly, each with a crash time in [0, horizon).

    This is the standard benign fault workload for oblivious-adversary
    benchmarks: victims and times are decided before the run.
    """
    pool = list(candidates) if candidates is not None else list(range(n))
    if count < 0:
        raise ConfigurationError(f"cannot crash {count} processes")
    if count > len(pool):
        raise ConfigurationError(
            f"cannot crash {count} of {len(pool)} candidate processes"
        )
    rng = derive_rng(seed, "crash-plan", n, count, horizon)
    victims = rng.sample(pool, count)
    events: Dict[int, Set[int]] = {}
    for pid in victims:
        t = rng.randrange(max(1, horizon))
        events.setdefault(t, set()).add(pid)
    return CrashPlan(events)


def wave_crashes(victims: Iterable[int], at: int) -> CrashPlan:
    """All ``victims`` crash simultaneously at time ``at`` (a failure wave)."""
    return CrashPlan({at: set(victims)})


def staggered_halving(
    n: int, f: int, epoch_length: int, seed: int = 0
) -> CrashPlan:
    """Crash waves that halve the live population once per epoch.

    Mirrors the epoch structure in the EARS analysis (Section 3.2), where
    each epoch loses at most a constant fraction of the live processes:
    epoch k (of length ``epoch_length``) ends with a wave crashing half of
    the remaining budget.
    """
    if epoch_length < 1:
        raise ConfigurationError(
            f"epoch_length must be >= 1, got {epoch_length}")
    rng = derive_rng(seed, "staggered-halving", n, f, epoch_length)
    remaining = rng.sample(range(n), f)
    events: Dict[int, Set[int]] = {}
    epoch = 0
    while remaining:
        take = max(1, len(remaining) // 2)
        wave, remaining = remaining[:take], remaining[take:]
        events[epoch * epoch_length] = set(wave)
        epoch += 1
    return CrashPlan(events)
