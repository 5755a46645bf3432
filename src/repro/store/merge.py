"""Shard merge for stores.

A large campaign can be split across hosts by spec hash
(:func:`shard_of` / :func:`shard_specs`, with :func:`parse_shard`
reading the ``INDEX/COUNT`` form every ``--shard`` flag takes): each
host runs its slice
against its own store, and the shards are merged back into one artifact
set afterwards.  Merging is **deterministic**: the result
is independent of the order the shards are merged in.

Record identity is the canonical body (every stamped field except the
CRC): two shards holding byte-identical results for the same spec hash
merge silently.  A *conflict* — the same spec hash with different
bodies, which for hash-pinned seeds should only happen across package
versions — resolves by policy:

* ``"error"`` (default): raise :class:`MergeConflict`.  The safe choice
  when shards are expected to be disjoint.
* ``"provenance"``: the record with the greater provenance wins —
  ordered by (record schema version, parsed package version, canonical
  body digest as the deterministic tie-break).  Newest build wins; the
  digest makes the winner order-independent even between records with
  identical stamps.

A store is its campaign's only progress record, so merging the stores
of disjoint shards yields a store against which ``--resume`` of the
whole campaign finds zero missing cells and runs nothing.

Merge is also the one bridge between backends: merging a JSONL log
into a fresh ``.sqlite`` path indexes it, and merging a SQLite store
into a fresh ``.jsonl`` path dumps it in spec-hash order.  Corrupt
lines a JSONL source's load quarantines are counted in the report, so
a caller can refuse a lossy copy.
"""

from __future__ import annotations

import hashlib
import os
import re
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from ..sim.errors import ConfigurationError
from .base import Store, canonical_body, open_store
from .jsonl import JsonlStore

__all__ = [
    "MERGE_POLICIES",
    "MergeConflict",
    "merge_stores",
    "parse_shard",
    "shard_of",
    "shard_specs",
]

MERGE_POLICIES = ("error", "provenance")


class MergeConflict(ConfigurationError):
    """Two shards hold different records for the same spec hash."""


def _version_tuple(version: Any) -> Tuple[int, ...]:
    if not isinstance(version, str):
        return ()
    return tuple(int(part) for part in re.findall(r"\d+", version))


def _body_digest(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def provenance_key(record: Dict[str, Any],
                   body: Optional[str] = None) -> Tuple[Any, ...]:
    """The total order ``policy="provenance"`` resolves conflicts by."""
    if body is None:
        body = canonical_body(record)
    schema = record.get("schema")
    return (
        schema if isinstance(schema, int) else 0,
        _version_tuple(record.get("package")),
        _body_digest(body),
    )


def _resolve(spec_hash: str, ours: Dict[str, Any], theirs: Dict[str, Any],
             policy: str) -> Tuple[Optional[Dict[str, Any]], bool]:
    """Returns ``(winner-or-None, divergent)``.

    ``winner`` is ``theirs`` only when it must replace ``ours``
    (identical bodies, and divergences ``ours`` wins, return ``None``);
    ``divergent`` is True whenever the bodies differ.
    """
    our_body = canonical_body(ours)
    their_body = canonical_body(theirs)
    if our_body == their_body:
        return None, False
    if policy == "error":
        raise MergeConflict(
            f"spec hash {spec_hash} has divergent records "
            f"(packages {ours.get('package')!r} vs "
            f"{theirs.get('package')!r}); re-merge with "
            f"policy='provenance' to keep the newest provenance"
        )
    if provenance_key(theirs, their_body) > provenance_key(
            ours, our_body):
        return theirs, True
    return None, True


def merge_stores(
    dest: Store,
    sources: Iterable[Any],
    policy: str = "error",
) -> Dict[str, Any]:
    """Merge every record of ``sources`` into ``dest``.

    ``sources`` may be :class:`Store` instances, store paths (backend
    chosen by the file name), or plain record iterables.  Records land
    via ``put_record`` — provenance stamps travel verbatim, nothing is
    re-stamped.  Returns ``{"added", "identical", "replaced",
    "conflicts", "quarantined"}`` counts (``conflicts`` counts
    divergences seen, won or lost — zero for genuinely disjoint shards;
    ``quarantined`` counts the corrupt lines the JSONL sources' loads
    set aside, whose records are not merged).  The writes are one
    ``dest.transaction()``: a conflict keeps what merged before it.
    """
    if policy not in MERGE_POLICIES:
        raise ConfigurationError(
            f"unknown merge policy {policy!r}; "
            f"choose from {list(MERGE_POLICIES)}"
        )
    added = identical = replaced = conflicts = quarantined = 0
    with dest.transaction():
        for source in sources:
            if isinstance(source, (str, os.PathLike)):
                source = open_store(str(source))
            records = (source.records() if isinstance(source, Store)
                       else source)
            for record in records:
                spec_hash = record.get("spec_hash")
                existing = dest.get(spec_hash) if spec_hash else None
                if existing is None:
                    dest.put_record(record)
                    added += 1
                    continue
                winner, divergent = _resolve(spec_hash, existing, record,
                                             policy)
                if divergent:
                    conflicts += 1
                else:
                    identical += 1
                if winner is not None:
                    dest.put_record(winner)
                    replaced += 1
            if isinstance(source, JsonlStore):
                quarantined += len(source.last_recovery["quarantined"])
    return {
        "added": added,
        "identical": identical,
        "replaced": replaced,
        "conflicts": conflicts,
        "quarantined": quarantined,
    }


def shard_of(spec_hash: str, shards: int) -> int:
    """Deterministic shard index of a spec hash (range partitioning on
    the hash's leading bytes, uniform for the canonical hex digests)."""
    if shards < 1:
        raise ConfigurationError(f"shards must be >= 1, got {shards}")
    return int(str(spec_hash)[:8], 16) % shards


def _check_shard(index: int, count: int) -> None:
    if not 0 <= index < count:
        raise ConfigurationError(
            f"shard index {index} out of range for {count} shard(s)"
        )


def parse_shard(text: str) -> Tuple[int, int]:
    """Parse ``"INDEX/COUNT"`` (e.g. ``"0/4"``) into a validated tuple."""
    try:
        index_text, count_text = str(text).split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ConfigurationError(
            f"bad shard {text!r}: expected INDEX/COUNT (e.g. 0/4)"
        ) from None
    _check_shard(index, count)
    return index, count


def shard_specs(specs: Sequence[Any], index: int,
                count: int) -> List[Any]:
    """The slice of ``specs`` belonging to shard ``index`` of ``count``.

    Partitions by :func:`shard_of` on each spec's ``spec_hash``; every
    spec lands in exactly one shard, so running all ``count`` shards and
    merging their stores covers the campaign exactly once.
    """
    _check_shard(index, count)
    return [spec for spec in specs
            if shard_of(spec.spec_hash, count) == index]
