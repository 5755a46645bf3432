"""Seeded artifact-store corruption injectors.

The simulation injectors (:mod:`repro.faults.injectors`) break the
paper's *execution model* and expect the runtime invariants to catch
them; these break the *artifact store's* on-disk promises and expect the
store's durability layer to catch them — :meth:`repro.store.Store.verify`,
the load-time recovery scan of the JSONL write-ahead log, and
:func:`repro.store.merge_stores` copying that WAL into a SQLite
index.  Each injector reproduces one real crash signature:

* :class:`TornWriteFault` — a SIGKILL or power loss mid-append leaves a
  truncated final line (the classic torn write);
* :class:`ChecksumFlipFault` — silent media/transfer corruption flips a
  bit somewhere in a stored line; modelled as a flip inside the CRC
  stamp itself, the adversarially minimal corruption (the payload still
  parses as pristine JSON, only the checksum disagrees).

Detection contract, asserted by the chaos campaign: ``verify()`` must
report the injected line (``"store-corruption"`` detection), a fresh
load must salvage exactly the valid records and quarantine the bad
line, a merge of the WAL into a fresh SQLite index must add exactly
the survivors while counting the injected lines as quarantined, and a
clean store must verify with zero findings (the campaign's
false-positive control).
"""

from __future__ import annotations

import random
import re
from typing import Any, Dict

from ..sim.errors import Registry

__all__ = [
    "STORE_FAULTS",
    "ChecksumFlipFault",
    "StoreFault",
    "TornWriteFault",
]


class StoreFault:
    """Base: a seeded corruption of an on-disk JSONL store.

    ``expects`` mirrors the simulation-fault contract: the detector
    name the campaign requires.  Store faults are all detected by the
    durability layer, reported as ``"store-corruption"``.
    """

    name = "store-fault"
    expects = ("store-corruption",)

    def inject(self, path: str, rng: random.Random) -> Dict[str, Any]:
        """Corrupt the store at ``path``; return an info dict with at
        least ``corrupted_lines`` (how many lines verify must flag) and
        ``surviving_records`` (how many records a recovery load must
        salvage)."""
        raise NotImplementedError


def _read_lines(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read().splitlines()


class TornWriteFault(StoreFault):
    """Truncate the final record mid-line: a crash during append.

    The cut lands strictly inside the line's first half, so the tail can
    never re-parse as a complete record; the trailing newline goes too,
    exactly as an interrupted ``write`` would leave the file.
    """

    name = "store-torn-write"

    def inject(self, path: str, rng: random.Random) -> Dict[str, Any]:
        lines = _read_lines(path)
        if not lines:
            raise ValueError(f"store {path!r} has no lines to tear")
        last = lines[-1]
        cut = 1 + rng.randrange(max(1, len(last) // 2))
        torn = last[:cut]
        with open(path, "w", encoding="utf-8") as handle:
            for line in lines[:-1]:
                handle.write(line + "\n")
            handle.write(torn)  # no newline: the append never finished
        return {
            "corrupted_lines": 1,
            "surviving_records": len(lines) - 1,
            "line": len(lines),
            "cut": cut,
        }


class ChecksumFlipFault(StoreFault):
    """Flip one hex digit inside a random record's CRC stamp.

    The line still parses as JSON and every payload field is intact —
    only the checksum disagrees with the canonical body, so nothing
    short of actually verifying the CRC can notice.
    """

    name = "store-checksum-flip"

    _CRC_FIELD = re.compile(r'"crc":\s*"([0-9a-f]{8})"')

    def inject(self, path: str, rng: random.Random) -> Dict[str, Any]:
        lines = _read_lines(path)
        candidates = [
            index for index, line in enumerate(lines)
            if self._CRC_FIELD.search(line)
        ]
        if not candidates:
            raise ValueError(
                f"store {path!r} holds no checksummed (schema >= 2) "
                "records to corrupt"
            )
        victim = candidates[rng.randrange(len(candidates))]
        match = self._CRC_FIELD.search(lines[victim])
        crc = match.group(1)
        digit_pos = rng.randrange(len(crc))
        old_digit = crc[digit_pos]
        new_digit = format(
            int(old_digit, 16) ^ (1 << rng.randrange(4)), "x"
        )
        flipped = crc[:digit_pos] + new_digit + crc[digit_pos + 1:]
        start = match.start(1)
        lines[victim] = (
            lines[victim][:start] + flipped
            + lines[victim][start + len(crc):]
        )
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(lines) + "\n")
        return {
            "corrupted_lines": 1,
            "surviving_records": len(lines) - 1,
            "line": victim + 1,
            "crc": f"{crc}->{flipped}",
        }


# -- registry ----------------------------------------------------------------#

STORE_FAULTS = Registry("store fault", {
    cls.name: cls for cls in (TornWriteFault, ChecksumFlipFault)})
