"""Durable, provenance-stamped JSONL write-ahead log.

One backend of the layered store, and the original one: the durable
write-ahead format that campaign workers append to, and that
``repro-gossip store merge`` can copy into a
:class:`~repro.store.sqlite.SqliteStore` for indexed queries.  A path
with any suffix but ``.sqlite``/``.sqlite3``/``.db`` opens this backend;
a SQLite database under such a name is refused on load.

Record layout (one JSON object per line)::

    {"schema": 2, "spec_hash": "ab12...", "spec": {...},
     "package": "1.2.0", "metrics": {...}, "crc": "9f3c21aa"}

Durability contract (schema 2):

* every record carries a CRC-32 over its canonical serialization, so a
  bit flip anywhere in a stored line is detected on load;
* appends write one complete line through a single ``write`` call,
  flushed (and fsynced under ``fsync="always"``) before the in-memory
  cache is updated — a failed write never leaves cache and disk
  divergent;
* concurrent writers serialize through an advisory ``flock`` on a
  ``<path>.lock`` sidecar (a no-op where ``fcntl`` is unavailable);
* loading performs a **recovery scan**: torn or corrupt lines — the
  signature of a SIGKILL or power loss mid-append — are salvaged out of
  the way into a ``<path>.quarantine`` sidecar and the valid records
  load normally, instead of one bad tail line poisoning the whole
  artifact set;
* ``verify()`` reports corruption without mutating anything, and
  :meth:`JsonlStore.compact` rewrites the log atomically, dropping
  superseded duplicates and corrupt lines — both judge lines by the
  rule in :mod:`repro.store.base`, the same one the SQLite backend uses.

Schema-1 records (no ``crc`` field) load unchanged — their lines simply
have no checksum to check — so stores written by older builds keep
working, spec hashes and cache-hit behavior included.  Readers still
refuse records whose schema version they do not know
(:class:`~repro.store.base.UnknownSchemaError`), so a store written by
a *future* layout is never silently misread.

Cross-process freshness: a loaded handle remembers ``(size, mtime)`` of
the log plus the byte offset its recovery scan reached.  Every read
re-stats the file; records appended by *other* workers since the last
scan are picked up with an incremental tail read from that offset — no
full rescan, and no stale cache for the lifetime of the handle (the
pre-refactor behavior, where a second worker's appends were invisible
forever).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from .base import (
    Store,
    _validate_fsync,
    advisory_lock,
    atomic_replace_json,
    check_schema,
    fsync_directory,
    scan_jsonl_lines,
)

__all__ = ["JsonlStore"]


class JsonlStore(Store):
    """Append-only JSONL store of execution records, keyed by spec hash.

    ``fsync`` selects the append durability policy (see
    :data:`~repro.store.base.FSYNC_POLICIES`).  Corrupt lines discovered
    while loading are moved to the ``<path>.quarantine`` sidecar and
    reported through :attr:`last_recovery`; :meth:`verify` inspects
    without mutating and :meth:`compact` rewrites the log clean.
    """

    backend = "jsonl"

    def __init__(self, path: str, fsync: str = "never") -> None:
        self.path = str(path)
        self.fsync = _validate_fsync(fsync)
        self._records: Optional[Dict[str, Dict[str, Any]]] = None
        self._quarantined: List[Dict[str, Any]] = []
        #: Byte offset the recovery scan has consumed so far; refreshes
        #: resume here instead of rescanning the whole log.
        self._scan_offset = 0
        #: Physical lines consumed so far (numbers quarantine entries).
        self._scan_lines = 0
        #: ``(st_size, st_mtime_ns)`` of the log at the last scan, or
        #: ``None`` when the cache must be revalidated against disk.
        self._file_stat: Optional[Tuple[int, int]] = None
        #: Report of the most recent load's recovery scan (``None``
        #: until a load happens; ``quarantined`` empty on clean loads).
        self.last_recovery: Optional[Dict[str, Any]] = None

    @property
    def lock_path(self) -> str:
        return self.path + ".lock"

    @property
    def quarantine_path(self) -> str:
        return self.path + ".quarantine"

    # -- scanning ---------------------------------------------------------#

    def _stat(self) -> Optional[Tuple[int, int]]:
        try:
            stat = os.stat(self.path)
        except OSError:
            return None
        return (stat.st_size, stat.st_mtime_ns)

    def _consume_scan(self, start: int, first_lineno: int) -> None:
        """Scan ``[start, EOF)`` into the cache, advancing the offset.

        Raises :class:`UnknownSchemaError` on a record from a future
        build (the cache keeps its pre-scan contents and the next read
        retries, matching full-load semantics).
        """
        assert self._records is not None
        fresh_quarantine = False
        offset, lineno = start, first_lineno - 1
        for lineno, raw, entry, problem, offset in scan_jsonl_lines(
                self.path, start, first_lineno):
            if problem == "unknown-schema":
                check_schema(entry.get("schema"),
                             f"store {self.path!r} line {lineno}")
            if problem is not None:
                self._quarantined.append(
                    {"line": lineno, "reason": problem, "raw": raw})
                fresh_quarantine = True
                continue
            self._records[entry["spec_hash"]] = entry
        self._scan_offset = offset
        self._scan_lines = lineno
        self._file_stat = self._stat()
        if fresh_quarantine:
            # Salvage: the valid prefix (and any valid suffix) loads;
            # offending lines move to the sidecar for post-mortem.
            atomic_replace_json(self.quarantine_path, {
                "store": self.path,
                "entries": self._quarantined,
            })
        self.last_recovery = {
            "records": len(self._records),
            "quarantined": list(self._quarantined),
        }

    # -- loading ----------------------------------------------------------#

    def _load(self) -> Dict[str, Dict[str, Any]]:
        if self._records is None:
            self._records = {}
            self._quarantined = []
            self._consume_scan(0, 1)
            return self._records
        stat = self._stat()
        if stat == self._file_stat:
            return self._records
        if stat is not None and stat[0] > self._scan_offset:
            # Append-only growth by another worker: pick up exactly the
            # unseen tail.  (A torn line we already quarantined may have
            # been healed with a separating newline — the tail scan then
            # starts on that blank remainder and skips it.)
            self._consume_scan(self._scan_offset, self._scan_lines + 1)
            return self._records
        # Shrunk, replaced, or rewritten in place (compaction by another
        # process): the incremental offset is meaningless — full reload.
        self._records = {}
        self._quarantined = []
        self._consume_scan(0, 1)
        return self._records

    def quarantined_entries(self) -> List[Dict[str, Any]]:
        """Entries currently sitting in the quarantine sidecar."""
        if not os.path.exists(self.quarantine_path):
            return []
        with open(self.quarantine_path, encoding="utf-8") as handle:
            payload = json.load(handle)
        return list(payload.get("entries", []))

    # -- integrity --------------------------------------------------------#

    def compact(self) -> Dict[str, Any]:
        """Atomically rewrite the log with one clean record per hash.

        Keeps what :meth:`~repro.store.base.Store._compaction` keeps —
        the last valid record per spec hash (matching load semantics),
        re-stamped at the current schema — drops superseded and corrupt
        lines, refuses on unknown schemas, and removes the quarantine
        sidecar.  The rewrite goes through a fsynced temporary file and
        ``os.replace``, so a crash mid-compaction leaves the original log
        untouched.
        """
        # The scan's first line refuses a SQLite file under a log's name;
        # read it before the lock would leave a sidecar beside that file.
        next(self._scan(), None)
        with advisory_lock(self.lock_path):
            kept: Dict[str, Dict[str, Any]] = {}
            lines = 0
            dropped_corrupt = 0
            for _line, record in self._compaction():
                lines += 1
                if record is None:
                    dropped_corrupt += 1
                else:
                    kept[record["spec_hash"]] = record
            if os.path.exists(self.path):
                tmp_path = self.path + ".tmp"
                with open(tmp_path, "w", encoding="utf-8") as handle:
                    for entry in kept.values():
                        handle.write(json.dumps(entry, default=str) + "\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp_path, self.path)
                fsync_directory(self.path)
            if os.path.exists(self.quarantine_path):
                os.remove(self.quarantine_path)
            stat = self._stat()
        self._records = kept
        self._quarantined = []
        self._scan_offset = stat[0] if stat else 0
        self._scan_lines = len(kept)
        self._file_stat = stat
        self.last_recovery = {"records": len(kept), "quarantined": []}
        return {
            "kept": len(kept),
            "dropped_superseded": lines - dropped_corrupt - len(kept),
            "dropped_corrupt": dropped_corrupt,
        }

    def sync(self) -> None:
        """fsync the log file (drain/flush path for graceful shutdown)."""
        if not os.path.exists(self.path):
            return
        fd = os.open(self.path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    # -- queries ----------------------------------------------------------#

    def get(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        return self._load().get(spec_hash)

    def __contains__(self, spec_hash: str) -> bool:
        return spec_hash in self._load()

    def __len__(self) -> int:
        return len(self._load())

    def records(self) -> List[Dict[str, Any]]:
        return list(self._load().values())

    # -- writes -----------------------------------------------------------#

    def _append_locked(self, record: Dict[str, Any]) -> None:
        """Append one record line; the caller holds the advisory lock."""
        line = (json.dumps(record, default=str) + "\n").encode("utf-8")
        with open(self.path, "a+b") as handle:
            handle.seek(0, os.SEEK_END)
            size = handle.tell()
            written = len(line)
            if size > 0:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
                    written += 1
            handle.write(line)
            handle.flush()
            if self.fsync == "always":
                os.fsync(handle.fileno())
        if size == self._scan_offset:
            # No foreign appends since our scan: the freshness state
            # advances over our own write so the next read need not
            # rescan it.  (A healing newline terminates the already-
            # counted torn line, so only our record adds a line.)
            self._scan_offset = size + written
            self._scan_lines += 1
            self._file_stat = self._stat()
        else:
            # Another worker appended since our scan; invalidate the
            # stat so the next read tail-scans their records (ours
            # included — re-reading it is idempotent).
            self._file_stat = None

    def _ensure_parent(self) -> None:
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)

    def put_record(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Append one record durably, then update the in-memory cache.

        The write happens (and is flushed, plus fsynced under the
        ``"always"`` policy) *before* the cache mutation: a failed open
        or write raises with cache and disk still agreeing.  The line is
        emitted through a single ``write`` call so concurrent lockless
        readers never observe an interleaved record.

        A crash can leave the log with a torn final line and no trailing
        newline; appending directly onto it would corrupt the *new*
        record too.  So under the lock the tail is checked first and a
        separating newline is written when the last byte is not one —
        the torn line stays quarantinable, the new record stays intact.
        """
        records = self._load()
        self._ensure_parent()
        with advisory_lock(self.lock_path):
            self._append_locked(record)
        records[record["spec_hash"]] = record
        return record

    def put_record_new(self, record: Dict[str, Any]
                       ) -> Tuple[Dict[str, Any], bool]:
        """Atomic insert-if-absent: check and append under one lock.

        The freshness reload happens *inside* the advisory lock, so two
        workers racing to store the same spec hash serialize — the loser
        sees the winner's line in its tail scan and backs off without
        appending a duplicate.  This is what lets a speculatively
        re-executed fleet job resolve first-completion-wins with zero
        double-counted records.
        """
        self._ensure_parent()
        with advisory_lock(self.lock_path):
            records = self._load()
            existing = records.get(record["spec_hash"])
            if existing is not None:
                return existing, False
            self._append_locked(record)
        records[record["spec_hash"]] = record
        return record, True
