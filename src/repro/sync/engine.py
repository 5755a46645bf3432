"""Lock-step synchronous round simulator.

The synchronous comparator model from the paper: d = δ = 1 and — crucially —
*known a priori* by the algorithm, so code may be structured in global
rounds. In each round every live process receives all messages sent to it in
the previous round, computes, and sends.

Crashes take effect at a round boundary: a process crashed at round r sends
nothing from round r on (messages it sent in round r−1 still deliver). This
is the cleanest crash model for measuring baseline complexity; the paper's
synchronous references tolerate harsher mid-round crashes, which is part of
why our CK-style baseline is a documented approximation (DESIGN.md §5).

The engine sits on the same :class:`~repro.sim.base.EngineCore` substrate as
the asynchronous engine: shared :class:`~repro.sim.metrics.Metrics`
accounting, the observer bus (event traces and bit metering work on
synchronous runs exactly as on asynchronous ones), and a
:class:`~repro.sim.base.RunResult`-compatible result type.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Set

from ..adversary.crash_plans import CrashPlan, no_crashes
from ..sim.base import EngineCore, RunResult
from ..sim.errors import ConfigurationError
from ..sim.events import Observer
from ..sim.rng import derive_rng


@dataclass
class SyncMessage:
    """A message in flight for exactly one round."""

    src: int
    dst: int
    payload: Any
    kind: str = "msg"
    #: Synchronous messages always deliver next round; the attribute exists
    #: so observers (trace, bit meter) see the same shape as async messages.
    delay: int = 1


class SyncContext:
    """Capabilities of a synchronous process during one round."""

    __slots__ = ("pid", "n", "f", "rng", "round", "outbox")

    def __init__(self, pid: int, n: int, f: int, rng) -> None:
        self.pid = pid
        self.n = n
        self.f = f
        self.rng = rng
        self.round = 0
        self.outbox: List[SyncMessage] = []

    def send(self, dst: int, payload: Any, kind: str = "msg") -> None:
        if not 0 <= dst < self.n:
            raise ConfigurationError(f"send() to invalid pid {dst}")
        self.outbox.append(SyncMessage(self.pid, dst, payload, kind))

    def send_many(self, dsts, payload: Any, kind: str = "msg") -> int:
        """Queue one message per destination; returns the number queued."""
        sent = 0
        for dst in dsts:
            self.send(dst, payload, kind)
            sent += 1
        return sent


class SyncAlgorithm(ABC):
    """Round-based process code. Knows it runs in lock-step rounds."""

    @abstractmethod
    def on_round(self, ctx: SyncContext, inbox: List[SyncMessage]) -> None:
        """Execute one synchronous round."""

    def is_done(self) -> bool:
        """True once this process considers its protocol finished."""
        return False


@dataclass
class SyncResult(RunResult):
    """A :class:`RunResult` whose ``steps`` count synchronous rounds.

    The historical field names remain available as properties so existing
    drivers (Table 1, Corollary 2, Karp push-pull) keep reading
    ``result.rounds`` / ``result.messages_by_kind`` / ``result.crashes``.
    """

    @property
    def rounds(self) -> int:
        return self.steps

    @property
    def messages_by_kind(self) -> Dict[str, int]:
        return self.metrics["messages_by_kind"]

    @property
    def crashes(self) -> int:
        return self.metrics["crashes"]


class SyncSimulation(EngineCore):
    """Runs ``n`` synchronous processes to completion or a round limit."""

    def __init__(
        self,
        n: int,
        f: int,
        algorithms: Sequence[SyncAlgorithm],
        crashes: Optional[CrashPlan] = None,
        monitor: Optional[Callable[["SyncSimulation"], bool]] = None,
        seed: int = 0,
        observers: Sequence[Observer] = (),
    ) -> None:
        if len(algorithms) != n:
            raise ConfigurationError(
                f"expected {n} algorithms, got {len(algorithms)}"
            )
        self._init_core(n, f, seed, monitor)
        self.algorithms = list(algorithms)
        self.crash_plan = crashes if crashes is not None else no_crashes()
        if self.crash_plan.total > f:
            raise ConfigurationError(
                f"crash plan kills {self.crash_plan.total} > f={f}"
            )
        for observer in observers:
            self.add_observer(observer)
        self.contexts = [
            SyncContext(pid, n, f, derive_rng(seed, "sync-proc", pid))
            for pid in range(n)
        ]
        self.alive: Set[int] = set(range(n))
        self.round = 0
        self._in_flight: List[SyncMessage] = []

    @property
    def alive_pids(self) -> frozenset:
        return frozenset(self.alive)

    def algorithm(self, pid: int) -> SyncAlgorithm:
        return self.algorithms[pid]

    def step_round(self) -> None:
        """Execute one full synchronous round."""
        r = self.round
        if self._obs_step_begin:
            for handler in self._obs_step_begin:
                handler(r)

        for pid in self.crash_plan.crashes_at(r):
            if pid in self.alive:
                self.alive.discard(pid)
                self.metrics.record_crash(pid, r)
                if self._obs_crash:
                    for handler in self._obs_crash:
                        handler(r, pid)

        inboxes: Dict[int, List[SyncMessage]] = {p: [] for p in self.alive}
        dropped = 0
        for msg in self._in_flight:
            if msg.dst in inboxes:
                inboxes[msg.dst].append(msg)
            else:
                dropped += 1
        self.metrics.messages_dropped += dropped
        self._in_flight = []

        for pid in sorted(self.alive):
            ctx = self.contexts[pid]
            ctx.round = r
            ctx.outbox = []
            self.metrics.record_scheduled(pid, r)
            if self._obs_schedule:
                for handler in self._obs_schedule:
                    handler(r, pid)
            inbox = inboxes[pid]
            if inbox:
                self.metrics.record_delivery(len(inbox), 1)
                if self._obs_deliver:
                    for handler in self._obs_deliver:
                        handler(r, pid, inbox)
            self.algorithms[pid].on_round(ctx, inbox)
            outbox = ctx.outbox
            self.metrics.record_send(pid, outbox, r)
            if self._obs_send:
                for msg in outbox:
                    for handler in self._obs_send:
                        handler(r, msg)
            self._in_flight.extend(outbox)
        self.round += 1
        self.metrics.steps_elapsed = self.round
        if self._obs_step_end:
            for handler in self._obs_step_end:
                handler(r)

    def run(self, max_rounds: int = 10_000) -> SyncResult:
        """Run rounds until the monitor holds / everyone is done / limit."""
        while self.round < max_rounds:
            self.step_round()
            if self.monitor is not None:
                if self.monitor(self):
                    return self._result(True, "completed")
            elif all(self.algorithms[p].is_done() for p in self.alive):
                return self._result(True, "completed")
        return self._result(False, "round-limit")

    def _result(self, completed: bool, reason: str) -> SyncResult:
        if completed:
            self.metrics.completion_time = self.round
            self._emit_complete(self.round)
        # Every live process steps every round, so the trailing-gap fold
        # is a no-op value-wise; called for metric-semantics parity with
        # the asynchronous engine.
        end = self.metrics.completion_time
        if end is None:
            end = self.round
        self.metrics.finalize(end, self.alive)
        return SyncResult(
            completed=completed,
            reason=reason,
            completion_time=self.metrics.completion_time,
            steps=self.round,
            messages=self.metrics.messages_sent,
            metrics=self.metrics.snapshot(),
        )
