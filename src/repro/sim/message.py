"""Point-to-point message records.

A :class:`Message` is the unit the paper's complexity measure counts: one
point-to-point message, regardless of payload size (the paper explicitly
defers bit complexity to future work).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import count
from typing import Any

_UID_COUNTER = count()

#: Prefix a Byzantine adversary stamps on the ``kind`` of every message it
#: mutated, forged or fabricated: ``byz:<behavior>:<original-kind>``. The
#: tag is provenance, not semantics — receivers dispatch on the original
#: kind via :func:`base_kind`, so corrupt traffic rides the normal
#: delivery path while invariants and metrics can still tell it apart.
BYZ_PREFIX = "byz:"


def base_kind(kind: str) -> str:
    """The algorithm-level kind underneath any ``byz:*`` provenance tag.

    ``base_kind("byz:tamper:ben-or") == "ben-or"``; untagged kinds pass
    through unchanged.
    """
    if kind.startswith(BYZ_PREFIX):
        return kind.rsplit(":", 1)[-1]
    return kind


def is_byzantine_kind(kind: str) -> bool:
    """True for message kinds carrying a Byzantine provenance tag."""
    return kind.startswith(BYZ_PREFIX)


@dataclass(slots=True)
class Message:
    """A single point-to-point message.

    Attributes:
        src: sender pid.
        dst: receiver pid.
        payload: algorithm-defined payload (opaque to the substrate).
        kind: short algorithm-defined tag used for per-kind accounting
            (e.g. ``"gossip"``, ``"first-level"``, ``"shutdown"``).
        sent_at: global time step at which the message was sent.
        delay: adversary-assigned delay; the message becomes deliverable at
            ``sent_at + delay``. The realized ``d`` of an execution is the
            maximum delay over delivered messages.
        uid: monotonically increasing id used for stable ordering.
    """

    src: int
    dst: int
    payload: Any
    kind: str = "msg"
    sent_at: int = -1
    delay: int = 1
    uid: int = field(default_factory=_UID_COUNTER.__next__)

    @property
    def deliverable_at(self) -> int:
        """First global time step at which this message may be received."""
        return self.sent_at + self.delay

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Message({self.src}->{self.dst} kind={self.kind!r} "
            f"sent_at={self.sent_at} delay={self.delay})"
        )
