"""Oblivious per-message delay assignment.

A delay plan realizes a target ``d``: every assigned delay is in ``[1, d]``.
To stay *oblivious*, randomized plans derive each delay from a fixed
pseudo-random function of ``(seed, src, dst, send time)`` — a choice the
adversary could have written down before the execution — rather than from any
state that depends on the algorithm's coin flips.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from hashlib import sha256
from struct import Struct
from typing import Sequence

from ..sim.errors import ConfigurationError
from ..sim.message import _SHORT_OUTBOX, FanOut, Message, pack, typecode

_FIRST_WORD = Struct(">I").unpack_from
#: ASCII decimal digits of the small pids, so the hot loop formats none.
_DIGITS = tuple(b"%d" % pid for pid in range(1024))


def _keyed(text: str):
    """A SHA-256 state that has absorbed ``text``."""
    return sha256(text.encode())


class DelayPlan(ABC):
    """Maps a just-sent message to its delivery delay."""

    #: The bound this plan guarantees (the execution's d is at most this).
    target_d: int = 1

    @abstractmethod
    def assign(self, msg: Message) -> int:
        """Delay in ``[1, target_d]`` for ``msg``."""

    @abstractmethod
    def stamp(self, outbox: Sequence, t: int) -> None:
        """Stamp ``sent_at = t`` and :meth:`assign`'s delay on each message
        of an outbox, in order — on a :class:`FanOut`, one delay per
        destination, the one :meth:`assign` gives that destination's
        message, packed in the typecode of :attr:`target_d`."""


def _stamp_fixed(outbox: Sequence, t: int, d: int) -> None:
    """Stamp ``sent_at = t`` and delay ``d`` on every message and every
    destination of a record (packed in ``d``'s typecode)."""
    for msg in outbox:
        msg.sent_at = t
        if type(msg) is FanOut:
            msg.delays = pack(typecode(d), [d]) * len(msg.dsts)
        else:
            msg.delay = d


class FixedDelay(DelayPlan):
    """Every message takes exactly ``d`` steps."""

    def __init__(self, d: int = 1) -> None:
        if d < 1:
            raise ConfigurationError(f"d must be >= 1, got {d}")
        self.target_d = d

    def assign(self, msg: Message) -> int:
        return self.target_d

    def stamp(self, outbox: Sequence, t: int) -> None:
        _stamp_fixed(outbox, t, self.target_d)


class HashDelay(DelayPlan):
    """Pseudo-random delay in ``[1, d]`` from a fixed function of the message.

    The delay depends only on ``(seed, src, dst, sent_at)``; since an
    oblivious adversary knows the schedule in advance, this is a table it
    could have precomputed, independent of the algorithm's randomness.
    """

    def __init__(self, d: int, seed: int = 0) -> None:
        if d < 1:
            raise ConfigurationError(f"d must be >= 1, got {d}")
        self.target_d = d
        self.seed = seed

    def assign(self, msg: Message) -> int:
        d = self.target_d
        if d == 1:
            return 1
        key = f"{self.seed}/{msg.src}/{msg.dst}/{msg.sent_at}"
        return 1 + _FIRST_WORD(_keyed(key).digest())[0] % d

    def stamp(self, outbox: Sequence, t: int) -> None:
        """:meth:`assign`'s delays for a whole outbox.

        Past a couple of messages (and for every :class:`FanOut`) the
        ``"{seed}/{src}/"`` prefix is hashed once per outbox — one
        process-step's sends all carry that process as ``src`` — and each
        destination feeds only its own ``"{dst}/{t}"`` to a copy of that
        state — the same digest. A record's delays are packed in the
        typecode of ``d``. Nothing is remembered between calls: plans are
        shared across forks and a hash state does not pickle.
        """
        d = self.target_d
        if d == 1:
            _stamp_fixed(outbox, t, 1)
            return
        if not outbox:
            return
        if (len(outbox) < _SHORT_OUTBOX and type(outbox[0]) is not FanOut
                and type(outbox[-1]) is not FanOut):
            # One or two messages (the first entry and the last are all of
            # them). The default loop, spelt out: this is every EARS step,
            # where one more call layer shows.
            for msg in outbox:
                msg.sent_at = t
                msg.delay = self.assign(msg)
            return
        prefix = _keyed(f"{self.seed}/{outbox[0].src}/").copy
        tail = f"/{t}".encode()
        code = typecode(d)
        digits = _DIGITS
        known = len(digits)
        first_word = _FIRST_WORD
        for msg in outbox:
            msg.sent_at = t
            if type(msg) is FanOut:
                delays = []
                for dst in msg.dsts:
                    state = prefix()
                    state.update(
                        digits[dst] if 0 <= dst < known
                        else f"{dst}".encode()
                    )
                    state.update(tail)
                    delays.append(1 + first_word(state.digest())[0] % d)
                msg.delays = pack(code, delays)
                continue
            state = prefix()
            dst = msg.dst
            state.update(
                digits[dst] if 0 <= dst < known else f"{dst}".encode()
            )
            state.update(tail)
            msg.delay = 1 + first_word(state.digest())[0] % d
