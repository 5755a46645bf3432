"""Bounded execution traces for debugging and property checking.

Traces are optional: benchmarks run without them, tests that need to assert
on fine-grained behaviour (e.g. "no message violated its assigned delay",
"validity: every rumor originated somewhere") attach one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Iterator, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One recorded event: time, kind, and kind-specific fields."""

    t: int
    kind: str
    fields: tuple

    def get(self, key: str, default: Any = None) -> Any:
        for k, v in self.fields:
            if k == key:
                return v
        return default


class EventTrace:
    """A bounded ring buffer of :class:`TraceEvent` records.

    Event kinds emitted by the engine:

    - ``schedule``: pid — a process took a local step.
    - ``send``: src, dst, kind, delay — a message left a process.
    - ``deliver``: dst, count — messages handed to a scheduled process.
    - ``crash``: pid — a process crashed.
    - ``complete``: (no fields) — the completion monitor first held.
    """

    def __init__(self, capacity: Optional[int] = None) -> None:
        self.events: Deque[TraceEvent] = deque(maxlen=capacity)

    def record(self, t: int, event: str, **fields: Any) -> None:
        self.events.append(TraceEvent(t, event, tuple(sorted(fields.items()))))

    def of_kind(self, kind: str) -> Iterator[TraceEvent]:
        return (e for e in self.events if e.kind == kind)

    def count(self, kind: str) -> int:
        return sum(1 for _ in self.of_kind(kind))

    def __len__(self) -> int:
        return len(self.events)
