"""Rumor-set representation.

A rumor is identified by its originator's pid, so a set of rumors is an
``n``-bit mask (bit ``p`` = "I know the rumor that initiated at process p").
Set union is a single integer OR, which is what makes simulating epidemic
algorithms at n in the hundreds cheap in pure Python.

Applications that attach *content* to rumors (consensus attaches votes) carry
an auxiliary ``{pid: value}`` dict alongside the mask. Rumor content is
immutable once created — process p's rumor never changes — so merged dicts
never disagree on a key.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, Optional, Tuple

from .._util import iter_bits, popcount


def mask_of(pids: Iterable[int]) -> int:
    """Bitmask with one bit per pid."""
    mask = 0
    for pid in pids:
        mask |= 1 << pid
    return mask


class RumorSet:
    """A mutable set of rumors: bitmask plus optional per-rumor payloads."""

    __slots__ = ("mask", "payloads")

    def __init__(self, mask: int = 0,
                 payloads: Optional[Dict[int, Any]] = None) -> None:
        self.mask = mask
        self.payloads: Dict[int, Any] = dict(payloads) if payloads else {}

    @classmethod
    def initial(cls, pid: int, payload: Any = None) -> "RumorSet":
        """The singleton set holding process ``pid``'s own rumor."""
        rumors = cls(1 << pid)
        if payload is not None:
            rumors.payloads[pid] = payload
        return rumors

    def __contains__(self, pid: int) -> bool:
        return bool(self.mask >> pid & 1)

    def __len__(self) -> int:
        return popcount(self.mask)

    def __iter__(self) -> Iterator[int]:
        return iter_bits(self.mask)

    def merge(self, mask: int, payloads: Optional[Dict[int, Any]] = None
              ) -> bool:
        """Union in another rumor set; returns True if anything was new."""
        new = bool(mask & ~self.mask)
        self.mask |= mask
        if payloads:
            self.payloads.update(payloads)
        return new

    def merge_inbox(self, inbox: Iterable[Any]) -> bool:
        """Union in every ``(mask, payloads)`` message of one step's inbox;
        returns True if the mask grew (some message was new).

        The masks are OR-ed into a local and stored once — what the
        receiver pays per message — and payload dicts update in message
        order, exactly as one :meth:`merge` per message would leave them.
        """
        payloads = self.payloads
        got = 0
        for msg in inbox:
            mask, theirs = msg.payload
            if theirs:
                payloads.update(theirs)
            got |= mask
        before = self.mask
        self.mask = merged = before | got
        return merged != before

    def clone(self) -> "RumorSet":
        """Independent copy. Payload *values* are shared: rumor content is
        immutable once created (module contract above), so only the dict
        needs duplicating."""
        return RumorSet(self.mask, self.payloads)

    def snapshot(self) -> Tuple[int, Optional[Dict[int, Any]]]:
        """An immutable-enough copy safe to put in a message payload.

        The mask is an int (immutable); the payload dict is copied because
        the sender keeps mutating its own dict while the message is in
        flight, and in-flight messages must not change retroactively.
        """
        return self.mask, (dict(self.payloads) if self.payloads else None)

    def value_of(self, pid: int, default: Any = None) -> Any:
        return self.payloads.get(pid, default)
