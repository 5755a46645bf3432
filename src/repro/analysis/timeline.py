"""ASCII execution timelines from event traces.

Renders a per-process lane over global time from an attached
:class:`~repro.sim.trace.EventTrace`: when each process was scheduled, when
it sent, received and crashed. Invaluable when debugging adversary
strategies — the Theorem 1 phases are directly visible as texture changes.

Cell glyphs (one column per time step, later events override earlier):

    ``.`` scheduled, idle    ``s`` sent message(s)    ``r`` received
    ``b`` both sent and received    ``X`` crashed here    ``␣`` not scheduled
"""

from __future__ import annotations

from typing import Dict, List, Optional

from ..sim.events import TraceObserver
from ..sim.trace import EventTrace

GLYPH_IDLE = "."
GLYPH_SEND = "s"
GLYPH_RECEIVE = "r"
GLYPH_BOTH = "b"
GLYPH_CRASH = "X"
GLYPH_OFF = " "


def render_timeline(
    trace: EventTrace,
    n: int,
    t_start: int = 0,
    t_end: Optional[int] = None,
    pids: Optional[List[int]] = None,
    width: int = 100,
) -> str:
    """Render the trace as one lane per process.

    ``width`` caps the number of columns; longer spans are right-truncated
    with a note. Requires the trace to contain ``schedule`` events (attach
    the trace before running the simulation).
    """
    events = list(trace.events)
    if t_end is None:
        t_end = max((e.t for e in events), default=0) + 1
    t_end = min(t_end, t_start + width)
    span = t_end - t_start
    lanes: Dict[int, List[str]] = {}
    chosen = pids if pids is not None else list(range(n))
    for pid in chosen:
        lanes[pid] = [GLYPH_OFF] * span

    def mark(pid: int, t: int, glyph: str) -> None:
        if pid in lanes and t_start <= t < t_end:
            cell = lanes[pid][t - t_start]
            if glyph == GLYPH_CRASH:
                lanes[pid][t - t_start] = GLYPH_CRASH
            elif cell == GLYPH_CRASH:
                pass
            elif (glyph == GLYPH_SEND and cell == GLYPH_RECEIVE) or (
                glyph == GLYPH_RECEIVE and cell == GLYPH_SEND
            ):
                lanes[pid][t - t_start] = GLYPH_BOTH
            elif cell in (GLYPH_OFF, GLYPH_IDLE):
                lanes[pid][t - t_start] = glyph

    for event in events:
        if event.kind == "schedule":
            mark(event.get("pid"), event.t, GLYPH_IDLE)
        elif event.kind == "send":
            mark(event.get("src"), event.t, GLYPH_SEND)
        elif event.kind == "deliver":
            mark(event.get("dst"), event.t, GLYPH_RECEIVE)
        elif event.kind == "crash":
            mark(event.get("pid"), event.t, GLYPH_CRASH)

    label_width = max(len(str(pid)) for pid in chosen) + 1
    lines = [
        f"{'t':>{label_width}} {t_start}..{t_end - 1}"
        + ("  (truncated)" if span == width else "")
    ]
    for pid in chosen:
        lines.append(f"{pid:>{label_width}} " + "".join(lanes[pid]))
    lines.append(
        f"{'':>{label_width}} legend: .=idle s=sent r=received b=both "
        "X=crashed"
    )
    return "\n".join(lines)


def crash_summary(trace: EventTrace) -> List[str]:
    """One line per crash event, in time order."""
    return [
        f"t={event.t}: pid {event.get('pid')} crashed"
        for event in sorted(trace.of_kind("crash"), key=lambda e: e.t)
    ]


class TimelineRecorder(TraceObserver):
    """Observer that records an execution and renders it on demand.

    A :class:`~repro.sim.events.TraceObserver` that also remembers the
    engine's process count, so callers get a timeline without wiring an
    :class:`~repro.sim.trace.EventTrace` through the constructor::

        recorder = TimelineRecorder()
        sim = Simulation(..., observers=(recorder,))
        sim.run()
        print(recorder.render(width=80))

    A synchronous (d = δ = 1) run renders one round per time step.
    """

    def __init__(self, trace: Optional[EventTrace] = None) -> None:
        super().__init__(trace)
        self.n: Optional[int] = None

    def on_attach(self, engine) -> None:
        self.n = engine.n

    def render(self, **kwargs) -> str:
        """Render the recorded execution (kwargs as :func:`render_timeline`)."""
        if self.n is None:
            raise ValueError(
                "TimelineRecorder was never attached to a simulation"
            )
        return render_timeline(self.trace, n=self.n, **kwargs)

    def crash_lines(self) -> List[str]:
        """One line per recorded crash, in time order."""
        return crash_summary(self.trace)
