"""The observer/event bus of the execution engine.

Every instrumentation concern that used to be wired into the engine with
ad-hoc keyword arguments — event traces, bit metering, S-curve sampling,
timeline recording, profiling — is an :class:`Observer` registered on an
engine. The engine emits a small, fixed vocabulary of events:

- ``on_schedule(t, pid)`` — a process is about to take a local step;
- ``on_deliver(t, pid, inbox)`` — a non-empty inbox was handed to ``pid``;
- ``on_send(t, msg)`` — a message left a process (its whole outbox delayed
  and counted, not yet enqueued);
- ``on_crash(t, pid)`` — a process crashed;
- ``on_complete(t)`` — the completion condition first held;
- ``on_step_begin(t)`` / ``on_step_end(t)`` — brackets around one global
  time step (one round of a d = δ = 1 execution).

Observers override only the callbacks they care about; the engine keeps
per-event handler lists containing exactly the overridden callbacks, so a
run with no observers pays one empty-list truth test per emission site (the
zero-observer fast path) and a run with, say, only a trace observer pays
nothing for the step brackets it never subscribed to.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Sequence

from .trace import EventTrace

#: Event-kind -> Observer method name, in emission order within a step.
EVENT_METHODS = {
    "step_begin": "on_step_begin",
    "crash": "on_crash",
    "schedule": "on_schedule",
    "deliver": "on_deliver",
    "send": "on_send",
    "step_end": "on_step_end",
    "complete": "on_complete",
}


class Observer:
    """Base class for engine observers. All callbacks default to no-ops.

    The engine registers only the callbacks a subclass actually overrides,
    so an observer that only implements ``on_send`` adds zero overhead to
    scheduling, delivery and crash handling.

    A simulation with observers cannot be forked:
    :meth:`~repro.sim.engine.Simulation.fork` refuses it and names them.
    """

    def on_attach(self, engine) -> None:
        """Called when the observer is subscribed to an engine."""

    def on_step_begin(self, t: int) -> None:
        """Global step (or synchronous round) ``t`` is about to execute."""

    def on_crash(self, t: int, pid: int) -> None:
        """Process ``pid`` crashed at time ``t``."""

    def on_schedule(self, t: int, pid: int) -> None:
        """Process ``pid`` takes a local step at time ``t``."""

    def on_deliver(self, t: int, pid: int, inbox: Sequence) -> None:
        """A non-empty ``inbox`` was handed to ``pid`` at time ``t``.

        An entry may be a :class:`~repro.sim.message.FanOut` record,
        observed run or not, shared with every other receiver of its
        fan-out: read ``src``, ``kind``, ``payload`` and ``sent_at`` off
        it, take the receiver from ``pid``, and write to none of them.
        """

    def on_send(self, t: int, msg) -> None:
        """``msg`` left its sender at time ``t`` (delay already assigned).

        Fires once per message, in outbox order, with a fan-out record
        announced as the stamped :class:`~repro.sim.message.Message`
        objects it stands for (the network still carries the record),
        after the sending process-step's *whole* outbox was delayed and
        counted and before any of it is enqueued: ``metrics`` already
        includes every message of the outbox (``messages_sent``, the
        per-kind/sender/pair counters, ``last_send_time``), while
        ``network.in_flight``, ``total_enqueued`` and
        ``metrics.messages_dropped`` do not yet include any of them.
        """

    def on_step_end(self, t: int) -> None:
        """Global step ``t`` finished executing."""

    def on_complete(self, t: int) -> None:
        """The engine's completion condition first held at time ``t``."""


def overridden_events(observer: Observer) -> List[str]:
    """The event kinds whose callbacks ``observer``'s class overrides."""
    kinds = []
    for kind, method in EVENT_METHODS.items():
        if getattr(type(observer), method) is not getattr(Observer, method):
            kinds.append(kind)
    return kinds


class TraceObserver(Observer):
    """Adapts an :class:`~repro.sim.trace.EventTrace` to the observer bus.

    Emits exactly the records the engine used to write inline, so trace
    consumers (timeline rendering, delay-contract property tests) read
    the same events.  The caller keeps the ``EventTrace`` handle and
    passes ``observers=(TraceObserver(trace),)`` to either engine.
    """

    def __init__(self, trace: Optional[EventTrace] = None) -> None:
        self.trace = trace if trace is not None else EventTrace()

    def on_crash(self, t: int, pid: int) -> None:
        self.trace.record(t, "crash", pid=pid)

    def on_schedule(self, t: int, pid: int) -> None:
        self.trace.record(t, "schedule", pid=pid)

    def on_deliver(self, t: int, pid: int, inbox: Sequence) -> None:
        self.trace.record(t, "deliver", dst=pid, count=len(inbox))

    def on_send(self, t: int, msg) -> None:
        self.trace.record(
            t, "send", src=msg.src, dst=msg.dst,
            kind=msg.kind, delay=msg.delay,
        )

    def on_complete(self, t: int) -> None:
        self.trace.record(t, "complete")


class BitMeterObserver(Observer):
    """Accumulates estimated wire bits into ``engine.metrics.bits_sent``.

    The meter itself is stateless; the accumulator lives in the engine's
    metrics. The engine announces one outbox's messages in one loop, with
    no algorithm code between them, so a payload that is the very object
    of the previous message, at the same ``t`` from the same sender,
    measures the same: a fan-out's shared payload is measured once.
    """

    def __init__(self, meter: Callable[[Any], int]) -> None:
        self.meter = meter
        self._metrics = None
        # (t, src, payload, bits) of the last message measured.
        self._last: tuple = (None, None, None, 0)

    def on_attach(self, engine) -> None:
        self._metrics = engine.metrics

    def on_send(self, t: int, msg) -> None:
        payload = msg.payload
        last_t, last_src, last_payload, bits = self._last
        if payload is not last_payload or t != last_t or msg.src != last_src:
            bits = self.meter(payload)
            self._last = (t, msg.src, payload, bits)
        self._metrics.bits_sent += bits


class StepProfiler(Observer):
    """Wall-clock accounting of where engine time goes, per phase.

    Buckets the time between consecutive observer callbacks into the phase
    that just ran: ``crash`` (crash processing), ``schedule`` (schedule
    computation), ``deliver`` (message collection), ``compute+send``
    (algorithm steps and send handling), plus ``between-steps`` for
    monitor checks and loop overhead. The attribution is approximate —
    callback boundaries, not internal timers — but cheap enough to leave
    on for whole sweeps, which is what ``repro-gossip ... --profile``
    does.
    """

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.steps = 0
        self._mark: Optional[float] = None
        self._clock = time.perf_counter

    def _account(self, phase: str) -> None:
        now = self._clock()
        if self._mark is not None:
            self.seconds[phase] = self.seconds.get(phase, 0.0) + (
                now - self._mark
            )
        self.counts[phase] = self.counts.get(phase, 0) + 1
        self._mark = now

    def on_step_begin(self, t: int) -> None:
        self._account("between-steps")
        self.steps += 1

    def on_crash(self, t: int, pid: int) -> None:
        self._account("crash")

    def on_schedule(self, t: int, pid: int) -> None:
        self._account("schedule")

    def on_deliver(self, t: int, pid: int, inbox: Sequence) -> None:
        self._account("deliver")

    def on_send(self, t: int, msg) -> None:
        self._account("compute+send")

    def on_step_end(self, t: int) -> None:
        self._account("compute+send")

    def on_complete(self, t: int) -> None:
        self._account("between-steps")

    def report(self) -> str:
        total = sum(self.seconds.values()) or 1e-12
        lines = [f"{'phase':>14s}  {'seconds':>9s}  {'share':>6s}  "
                 f"{'events':>8s}"]
        for phase in sorted(self.seconds, key=self.seconds.get,
                            reverse=True):
            secs = self.seconds[phase]
            lines.append(
                f"{phase:>14s}  {secs:9.4f}  {secs / total:5.1%}  "
                f"{self.counts.get(phase, 0):8d}"
            )
        lines.append(f"{'total':>14s}  {sum(self.seconds.values()):9.4f}  "
                     f"{'':>6s}  {self.steps:8d} steps")
        return "\n".join(lines)
