"""The asynchronous discrete-step execution engine.

This is a direct implementation of the paper's timing model: time proceeds in
discrete steps; at every step the adversary picks the crash set and the
scheduled set; each scheduled process receives deliverable messages, computes,
and sends. The engine *measures* the synchrony parameters ``d`` and ``δ`` of
the execution it produces — algorithms never see them.

The synchronous model is one execution of this engine, not a second
engine: under :meth:`~repro.adversary.oblivious.ObliviousAdversary.
synchronous_like` (d = δ = 1) every live process steps every step and every
message arrives one step after it was sent, so a step is a round. The
synchronous baselines of :mod:`repro.sync` run there.

The engine is deterministic given (algorithms, adversary, master seed).
Instrumentation (event traces, bit metering, profilers, samplers) attaches
through the observer bus (:mod:`repro.sim.events`): the per-event handler
lists (``_obs_send``, ``_obs_deliver``, ...) hold exactly the callbacks each
registered observer *overrides*, so a run with no observers pays one
empty-list check per emission site.

:meth:`Simulation.fork` produces an independent copy via the component
snapshot protocol — each part (network, metrics, process handles, RNG
streams, adversary) implements an O(own-state) ``clone`` — which is how the
adaptive lower-bound adversary of Theorem 1 evaluates distributions over an
algorithm's future behaviour without paying ``copy.deepcopy`` per sample.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence

from .errors import (
    ConfigurationError,
    CrashBudgetExceeded,
    IncompleteRunError,
    InvalidScheduleError,
)
from .events import EVENT_METHODS, Observer, overridden_events
from .message import expand
from .metrics import Metrics
from .monitor import CompletionMonitor, quiescent
from .network import Network
from .process import Algorithm, Context, ProcessHandle
from .rng import derive_rng

__all__ = [
    "ENGINES",
    "RunResult",
    "SimSnapshot",
    "Simulation",
]

#: Recognized execution strategies, all driven by one run loop and all
#: bit-identical. ``"stepwise"`` never asks the adversary for its next
#: event and executes every time step — the reference semantics, and the
#: oracle the other two are tested against. ``"leap"`` and ``"auto"`` (the
#: default) are the same path: ask ``next_event_at`` before each step and
#: jump over the inert gap it reports; when the adversary cannot predict
#: (``None``) that iteration is a plain step. The query is O(log n) on the
#: built-in residue schedules. At d = δ = 2 (``dense-epidemic``, about 428
#: queries a round) that costs nothing measurable; on the dense RRW(64)
#: n = 128 control it does: ``BENCH_engine_leap.json`` records ``leap`` at
#: 0.91x and ``auto`` at 0.92x of stepwise (ROADMAP item 12). Both names
#: stay because specs, stores and the CLI carry them.
ENGINES = ("auto", "stepwise", "leap")


@dataclass
class RunResult:
    """Outcome of a run: ``steps`` counts global time steps (rounds on the
    d = δ = 1 execution); ``metrics`` is the
    :meth:`~repro.sim.metrics.Metrics.snapshot` dict of the execution."""

    completed: bool
    reason: str
    completion_time: Optional[int]
    steps: int
    messages: int
    metrics: dict


class SimSnapshot:
    """A reusable point-in-time capture of a :class:`Simulation`.

    Internally a detached fork; :meth:`Simulation.restore` re-clones its
    components back into a live simulation, so one snapshot supports any
    number of restores (each restore yields an independent continuation).
    """

    __slots__ = ("_frozen",)

    def __init__(self, frozen: "Simulation") -> None:
        self._frozen = frozen


class Simulation:
    """One execution of ``n`` processes under a given adversary."""

    def __init__(
        self,
        n: int,
        f: int,
        algorithms: Sequence[Algorithm],
        adversary,
        monitor: Optional[CompletionMonitor] = None,
        seed: int = 0,
        observers: Sequence[Observer] = (),
        engine: str = "auto",
        topology=None,
    ) -> None:
        if n < 1:
            raise ConfigurationError(f"n must be >= 1, got {n}")
        if not 0 <= f < n:
            raise ConfigurationError(f"require 0 <= f < n, got f={f}, n={n}")
        self.n = n
        self.f = f
        self.seed = seed
        self.monitor = monitor
        self.metrics = Metrics(n=n)
        self._reset_observers()
        if len(algorithms) != n:
            raise ConfigurationError(
                f"expected {n} algorithm instances, got {len(algorithms)}"
            )
        if engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {engine!r}; choose from {list(ENGINES)}"
            )
        self.engine = engine
        #: Communication topology (:class:`~repro.sim.topology.Topology`)
        #: or ``None`` for the paper's complete graph. Immutable, so forks
        #: share it.
        if topology is not None and topology.n != n:
            raise ConfigurationError(
                f"topology is over {topology.n} pids, simulation has n={n}"
            )
        self.topology = topology

        self.network = Network(n)
        self.processes: Dict[int, ProcessHandle] = {}
        self._alive: set = set(range(n))
        self._alive_frozen: Optional[FrozenSet[int]] = frozenset(range(n))
        self._now = 0
        self._completed = False

        for observer in observers:
            self.add_observer(observer)

        restricted = topology is not None and not topology.is_complete
        for pid in range(n):
            ctx = Context(
                pid, n, f, derive_rng(seed, "proc", pid),
                topology.neighbors(pid) if restricted else None,
            )
            handle = ProcessHandle(pid, algorithms[pid], ctx)
            self.processes[pid] = handle
            handle.algorithm.on_start(ctx)
            if ctx.outbox:
                raise ConfigurationError(
                    f"process {pid} sent messages from on_start(); sends are "
                    "only allowed from on_step()"
                )

        self.adversary = adversary
        adversary.on_attach(self)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> int:
        """Global time: the index of the next step to execute."""
        return self._now

    @property
    def alive_pids(self) -> FrozenSet[int]:
        if self._alive_frozen is None:
            self._alive_frozen = frozenset(self._alive)
        return self._alive_frozen

    def algorithm(self, pid: int) -> Algorithm:
        return self.processes[pid].algorithm

    def is_alive(self, pid: int) -> bool:
        return pid in self._alive

    # ------------------------------------------------------------------ #
    # Observer bus
    # ------------------------------------------------------------------ #

    def _reset_observers(self) -> None:
        self._observers: List[Observer] = []
        self._obs_step_begin: list = []
        self._obs_crash: list = []
        self._obs_schedule: list = []
        self._obs_deliver: list = []
        self._obs_send: list = []
        self._obs_step_end: list = []
        self._obs_complete: list = []

    def add_observer(self, observer: Observer) -> Observer:
        """Subscribe ``observer``; only its overridden callbacks are wired.

        Returns the observer for call chaining. Observers added mid-run see
        only subsequent events.
        """
        observer.on_attach(self)
        self._observers.append(observer)
        for kind in overridden_events(observer):
            handler = getattr(observer, EVENT_METHODS[kind])
            getattr(self, "_obs_" + kind).append(handler)
        return observer

    def _emit_complete(self, t: int) -> None:
        if self._obs_complete:
            for handler in self._obs_complete:
                handler(t)

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    def crash(self, pid: int) -> None:
        """Crash ``pid`` now (used by the engine and scripted adversaries)."""
        if pid not in self._alive:
            return
        if self.metrics.crashes >= self.f:
            raise CrashBudgetExceeded(
                f"adversary tried to crash pid {pid} but the budget f={self.f} "
                "is exhausted"
            )
        self._alive.discard(pid)
        self._alive_frozen = None
        self.processes[pid].crash(self._now)
        self.metrics.messages_dropped += self.network.drop_all_for(pid)
        self.metrics.record_crash(pid, self._now)
        if self._obs_crash:
            for handler in self._obs_crash:
                handler(self._now, pid)

    def step(self) -> None:
        """Execute one global time step."""
        t = self._now
        if self._obs_step_begin:
            for handler in self._obs_step_begin:
                handler(t)

        crashed = sorted(self.adversary.crashes_at(t))
        for pid in crashed:
            self.crash(pid)

        alive = self.alive_pids
        scheduled = self.adversary.schedule_at(t, alive)
        if not scheduled <= alive:
            raise InvalidScheduleError(
                f"schedule at t={t} contains non-live pids: "
                f"{sorted(scheduled - alive)}"
            )

        # Only the layer objects are bound here; their methods (and the
        # adversary's) are looked up where they are called, never cached
        # at construction: tracers and fault injectors replace them on
        # the built instances.
        metrics = self.metrics
        network = self.network
        # Fan-out records travel as one object unless something may look
        # at single messages: then each outbox is expanded into the
        # messages it stands for. Asked every step, because observers and
        # adversary wrappers are attached after construction.
        per_message = bool(
            self._observers
            or not getattr(self.adversary, "stamps_fanouts", False)
        )
        for pid in sorted(scheduled):
            handle = self.processes[pid]
            metrics.record_scheduled(pid, t)
            if self._obs_schedule:
                for handler in self._obs_schedule:
                    handler(t, pid)
            inbox = network.collect(pid, t)
            if inbox:
                metrics.record_delivery(
                    len(inbox), network.max_delivered_delay
                )
                if self._obs_deliver:
                    for handler in self._obs_deliver:
                        handler(t, pid, inbox)
            outbox = handle.run_step(inbox)
            if per_message:
                outbox = expand(outbox)
            if not outbox:
                continue
            # The outbox pipeline: the whole outbox is delayed, then
            # counted, then announced, then enqueued.
            self.adversary.delay_outbox(outbox, t)
            metrics.record_send(outbox, t)
            if self._obs_send:
                for msg in outbox:
                    for handler in self._obs_send:
                        handler(t, msg)
            # Messages to crashed processes count toward message
            # complexity but can never be delivered.
            metrics.messages_dropped += network.enqueue(outbox, self._alive)

        self._now += 1
        self.metrics.steps_elapsed = self._now
        if self._obs_step_end:
            for handler in self._obs_step_end:
                handler(t)

    def run(self, max_steps: int = 1_000_000,
            strict: bool = False) -> RunResult:
        """Step until the monitor holds, the system stalls, or the limit.

        A stalled system (empty network, all quiescent) with no pending
        adversary events can never satisfy a currently-false monitor, so the
        run stops early with ``reason="stalled"``.

        The monitor is evaluated after every step, so a completed run's
        ``completion_time`` is the step at which it stopped. A run entered
        at or past ``max_steps`` executes nothing but still checks its
        monitor once, so an already-completed state is never misreported
        as ``"step-limit"``.

        With ``strict=True`` an incomplete run raises
        :class:`~repro.sim.errors.IncompleteRunError` carrying the stop
        reason, the in-flight message count and the quiescent set, instead
        of returning a ``completed=False`` result.

        There is one loop; the ``engine=`` knob only decides whether it
        asks the adversary for its next event. ``"stepwise"`` never asks
        and executes every time step (the reference). ``"auto"`` and
        ``"leap"`` ask before each step and jump over the inert gap the
        adversary reports — an inert step (nothing scheduled, no crash)
        mutates nothing but the clock, so :meth:`_leap_gap` reproduces
        what stepping through it would have done; an adversary that
        cannot predict (``None``) gets a plain step. All three are
        seed-for-seed bit-identical (same RunResult, same metrics, same
        RNG consumption, same observer stream).
        """
        if (self._now >= max_steps and self.monitor is not None
                and self.monitor.check(self)):
            return self._complete()
        ask = self.engine != "stepwise"
        while self._now < max_steps:
            if ask:
                nxt = self.adversary.next_event_at(self._now)
                if nxt is not None and nxt > self._now:
                    outcome = self._leap_gap(min(nxt, max_steps), strict)
                    if outcome is not None:
                        return outcome
                    if self._now >= max_steps:
                        break
            self.step()
            if self.monitor is not None and self.monitor.check(self):
                return self._complete()
            if quiescent(self) and not self.adversary.has_pending_events(
                self._now
            ):
                return self._stall_stop(strict)
        return self._finish(False, "step-limit", strict)

    def _skip_to(self, target: int) -> None:
        """Move the clock over the inert steps ``[now, target)``.

        Nothing but the clock, ``steps_elapsed`` and the observers'
        ``step_begin``/``step_end`` stream moves in an inert step.
        """
        if self._obs_step_begin or self._obs_step_end:
            for t in range(self._now, target):
                for handler in self._obs_step_begin:
                    handler(t)
                for handler in self._obs_step_end:
                    handler(t)
        self._now = target
        self.metrics.steps_elapsed = target

    def _leap_gap(self, target: int, strict: bool) -> Optional[RunResult]:
        """Jump ``_now`` over the inert gap up to ``target``.

        Returns a result when the jump hit a stepwise stopping point (the
        monitor held after the gap's first step, or the stalled-system
        stop fired inside the gap), else ``None``.
        """
        monitor = self.monitor
        if monitor is not None and not getattr(monitor, "leap_safe", False):
            # A monitor that reads the clock (not just state) is evaluated
            # after every step for real: the gap is one step long.
            target = self._now + 1

        # Stepwise runs its stall check after every (inert) step: with the
        # state frozen across the gap, the run would stop at the first
        # post-step time u with no pending adversary events. Find it
        # (has_pending_events is monotone non-increasing, so bisect) and
        # stop the jump there.
        stop_at = None
        if quiescent(self):
            nxt = self._now + 1
            if not self.adversary.has_pending_events(nxt):
                stop_at = nxt
            elif not self.adversary.has_pending_events(target):
                lo, hi = nxt, target  # pending at lo, none at hi
                while hi - lo > 1:
                    mid = (lo + hi) // 2
                    if self.adversary.has_pending_events(mid):
                        lo = mid
                    else:
                        hi = mid
                stop_at = hi
            if stop_at is not None:
                target = stop_at

        if monitor is not None:
            # State is frozen across the gap, so the check after each of
            # its steps returns the same verdict: evaluate once, after the
            # first step — with the clock showing that step, reproducing
            # both a true-verdict stop and time-stamped side effects
            # (gathering_time) exactly as stepwise would — then
            # fast-forward.
            self._skip_to(self._now + 1)
            if monitor.check(self):
                return self._complete()
        self._skip_to(target)

        if stop_at is not None and self._now == stop_at:
            return self._stall_stop(strict)
        return None

    def _stall_stop(self, strict: bool) -> RunResult:
        """The early stop for a stalled system with no pending events."""
        if self.monitor is None:
            return self._complete("quiescent")
        if self.monitor.check(self):
            return self._complete()
        return self._finish(False, "stalled", strict)

    def _complete(self, reason: str = "completed") -> RunResult:
        """Record a completion at the current step."""
        self._completed = True
        self.metrics.completion_time = self._now
        self._emit_complete(self._now)
        return self._result(True, reason)

    def _finish(self, completed: bool, reason: str,
                strict: bool) -> RunResult:
        result = self._result(completed, reason)
        if strict and not completed:
            quiescent = frozenset(
                pid for pid in self._alive
                if self.processes[pid].algorithm.is_quiescent()
            )
            raise IncompleteRunError(
                f"run did not complete (reason={reason!r}, "
                f"steps={self._now}, in_flight="
                f"{self.network.in_flight}, quiescent="
                f"{len(quiescent)}/{len(self._alive)} live)",
                reason=reason,
                steps=self._now,
                in_flight=self.network.in_flight,
                quiescent=quiescent,
                result=result,
            )
        return result

    def run_for(self, steps: int) -> None:
        """Execute exactly ``steps`` further steps (no monitor checks).

        Unless the engine is ``"stepwise"``, inert gaps inside the window
        are jumped (with observer back-fill), bit-identically to stepping
        them.
        """
        ask = self.engine != "stepwise"
        end = self._now + steps
        while self._now < end:
            if ask:
                nxt = self.adversary.next_event_at(self._now)
                if nxt is not None and nxt > self._now:
                    self._skip_to(min(nxt, end))
                    if self._now >= end:
                        return
            self.step()

    # ------------------------------------------------------------------ #
    # Snapshot protocol
    # ------------------------------------------------------------------ #

    def fork(self) -> "Simulation":
        """An independent copy of the entire execution state.

        Forks share nothing mutable with the original: process state, RNG
        streams, network queues, metrics and the adversary are all copied
        via their component ``clone`` methods (in-flight :class:`Message`
        objects are shared — they are frozen once enqueued). This is the
        primitive the Theorem 1 adversary uses to estimate expectations
        over an algorithm's coin flips, so it must be O(live state), not
        O(object graph). That adversary forks a run with no observers, and
        a simulation that has any is refused with a
        :class:`~repro.sim.errors.ConfigurationError` naming them; every
        algorithm of a forked run defines ``clone()``, as the gossip
        algorithms do.
        """
        clone = Simulation.__new__(Simulation)
        self._copy_into(clone)
        return clone

    def snapshot(self) -> SimSnapshot:
        """Capture the current state for later :meth:`restore`.

        Unlike :meth:`fork`, the captured state is inert (never stepped),
        and one snapshot can seed any number of restores.
        """
        return SimSnapshot(self.fork())

    def restore(self, snap: SimSnapshot) -> "Simulation":
        """Rewind this simulation to ``snap``'s state; returns ``self``.

        The snapshot's components are re-cloned on the way in, so the same
        snapshot can be restored again later.
        """
        if snap._frozen.n != self.n:
            raise ConfigurationError(
                f"snapshot is for n={snap._frozen.n}, this simulation has "
                f"n={self.n}"
            )
        snap._frozen._copy_into(self)
        return self

    def _copy_into(self, target: "Simulation") -> None:
        """Clone every component of this simulation into ``target``."""
        if self._observers:
            raise ConfigurationError(
                "cannot fork a simulation with observers: "
                + ", ".join(type(obs).__name__ for obs in self._observers))
        target.n = self.n
        target.f = self.f
        target.seed = self.seed
        target.engine = self.engine
        # Topologies are immutable; forks share the graph.
        target.topology = self.topology
        # Monitors hold a little mutable state (e.g. gathering_time) with no
        # references into the simulation, so deepcopy is both correct and
        # cheap here.
        target.monitor = copy.deepcopy(self.monitor)
        target.network = self.network.clone()
        target.metrics = self.metrics.clone()
        target.processes = {
            pid: handle.clone() for pid, handle in self.processes.items()
        }
        target._alive = set(self._alive)
        target._alive_frozen = frozenset(target._alive)
        target._now = self._now
        target._completed = self._completed

        target._reset_observers()
        target.adversary = self.adversary.clone_into(target)

    def _result(self, completed: bool, reason: str) -> RunResult:
        # Fold trailing scheduling gaps (starvation from a process's last
        # scheduled step to the end of the run) into realized δ; see
        # Metrics.finalize.
        end = self.metrics.completion_time
        if end is None:
            end = self._now
        self.metrics.finalize(end, self._alive)
        return RunResult(
            completed=completed,
            reason=reason,
            completion_time=self.metrics.completion_time,
            steps=self._now,
            messages=self.metrics.messages_sent,
            metrics=self.metrics.snapshot(),
        )
