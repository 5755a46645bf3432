"""Record format, durability helpers, and the :class:`Store` protocol.

Every backend stores the same *record*: one provenance-stamped JSON
object per executed spec — the canonical spec hash, the serialized spec
itself, the record schema version, the package version that produced it,
the realized metrics, and (schema 2) a CRC-32 over the canonical body.
This module owns that format (:func:`make_record`, :func:`record_crc`,
:func:`metrics_of`), the one rule for whether a stored record is
readable (:func:`classify_line`, :func:`check_schema`, and
``Store.verify`` / ``Store._compaction`` on top of them), plus the
write-discipline helpers shared by the backends and the fleet's
campaign directory (:func:`atomic_replace_json`, :func:`advisory_lock`).

:class:`Store` is the backend protocol extracted from the original
monolithic JSONL store's surface: ``get``/``put``/``records``/``verify``/
``compact``/``sync``/``quarantined_entries``, plus the raw-record write
primitive ``put_record`` (what :mod:`repro.store.merge` builds on) and
the query entry point :meth:`Store.select`.  Concrete backends, chosen
by the file name alone (:func:`open_store`):

* :class:`repro.store.jsonl.JsonlStore` — the durable append-only JSONL
  write-ahead log (CRC stamps, fsync policy, flock, torn-line
  quarantine);
* :class:`repro.store.sqlite.SqliteStore` — the indexed query backend
  (spec-hash primary key, indexed spec/metric columns, WAL-mode).
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib
from contextlib import contextmanager, nullcontext
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    Iterator,
    List,
    Optional,
    Tuple,
    Union,
)

from ..sim.errors import ConfigurationError
from ..spec.results import GossipRun
from ..spec.runspec import RunSpec

__all__ = [
    "FSYNC_POLICIES",
    "STORE_SCHEMA_VERSION",
    "Store",
    "UnknownSchemaError",
    "advisory_lock",
    "atomic_replace_json",
    "make_record",
    "metrics_of",
    "record_crc",
]

#: Version of the record layout.  Bump when a stamped field changes
#: meaning; loaders refuse versions they do not know.  Version 2 adds
#: the per-record ``crc`` stamp; version-1 records load without one.
STORE_SCHEMA_VERSION = 2

#: ``fsync`` policies for store writes. ``"always"`` makes every write
#: durable before the cache sees it (crash-safe to the last record, the
#: right setting for resumable campaigns); ``"never"`` leaves
#: flushing to the OS (fastest; a crash can lose recently buffered
#: records, which the recovery machinery then handles).
FSYNC_POLICIES = ("always", "never")


class UnknownSchemaError(ConfigurationError):
    """A store record carries a schema version this build cannot read."""


def _package_version() -> str:
    from .. import __version__

    return __version__


def metrics_of(outcome: Any) -> Dict[str, Any]:
    """Flatten a run result into the JSON-native realized metrics."""
    if isinstance(outcome, GossipRun):
        return {
            "completed": outcome.completed,
            "reason": outcome.reason,
            "time": outcome.completion_time,
            "gathering_time": outcome.gathering_time,
            "messages": outcome.messages,
            "bits": outcome.bits,
            "realized_d": outcome.realized_d,
            "realized_delta": outcome.realized_delta,
            "crashes": outcome.crashes,
        }
    if hasattr(outcome, "case"):
        # LowerBoundReport (duck-typed, like ConsensusRun below): its
        # fields in their stored JSON form (string pids, a list pair), so
        # a fresh record equals its round trip through any store.
        return json.loads(json.dumps(dataclasses.asdict(outcome)))
    # ConsensusRun (duck-typed: consensus imports stay lazy)
    return {
        "completed": outcome.completed,
        "reason": outcome.reason,
        "time": outcome.decision_time,
        "messages": outcome.messages,
        "rounds": outcome.rounds_used,
        "agreement": outcome.agreement,
        "validity": outcome.validity,
        "decisions": sorted(set(outcome.decisions.values())),
        "realized_d": outcome.realized_d,
        "realized_delta": outcome.realized_delta,
        "crashes": outcome.crashes,
    }


def canonical_body(record: Dict[str, Any]) -> str:
    """The serialization the CRC covers: every field except ``crc``
    itself, canonically ordered.  ``default=str`` matches the line
    serialization, so a record checksummed in memory verifies after its
    JSON round-trip.  This is also the merge layer's record identity:
    two records with equal canonical bodies are the same result."""
    body = {key: value for key, value in record.items() if key != "crc"}
    return json.dumps(
        body, sort_keys=True, separators=(",", ":"), default=str
    )


def record_crc(record: Dict[str, Any]) -> str:
    """8-hex-digit CRC-32 of a record's canonical body."""
    digest = zlib.crc32(canonical_body(record).encode("utf-8"))
    return format(digest & 0xFFFFFFFF, "08x")


def make_record(spec: RunSpec, metrics: Dict[str, Any]) -> Dict[str, Any]:
    """One provenance-stamped, checksummed record for an executed spec."""
    record = {
        "schema": STORE_SCHEMA_VERSION,
        "spec_hash": spec.spec_hash,
        "spec": spec.to_dict(),
        "package": _package_version(),
        "metrics": metrics,
    }
    record["crc"] = record_crc(record)
    return record


def _known_schema(schema: Any) -> bool:
    return isinstance(schema, int) and 1 <= schema <= STORE_SCHEMA_VERSION


def check_schema(schema: Any, where: str, compacting: bool = False) -> None:
    """Raise :class:`UnknownSchemaError` for a schema stamp this build
    cannot read.

    The one unknown-schema refusal: JSONL loads and the SQLite row
    decoder refuse such a record, and ``compact()``
    (``compacting``) refuses to drop it.  ``where`` names the record,
    e.g. ``store 'runs.jsonl' line 7``.
    """
    if _known_schema(schema):
        return
    raise UnknownSchemaError(
        f"{where} holds a record with schema version {schema!r}; "
        f"this build reads versions 1..{STORE_SCHEMA_VERSION}"
        + (" and will not compact away records it cannot interpret"
           if compacting else "")
    )


def restamp(record: Dict[str, Any]) -> Dict[str, Any]:
    """A copy of ``record`` stamped at the current schema, fresh CRC."""
    record = dict(record, schema=STORE_SCHEMA_VERSION)
    record["crc"] = record_crc(record)
    return record


@contextmanager
def advisory_lock(lock_path: str):
    """Advisory exclusive lock on ``lock_path`` (no-op without fcntl).

    Serializes concurrent writers (appends, compaction) on platforms
    that support ``flock``; single-writer workflows pay one open/close.
    """
    try:
        import fcntl
    except ImportError:  # pragma: no cover - non-POSIX fallback
        yield
        return
    handle = open(lock_path, "a+")
    try:
        fcntl.flock(handle.fileno(), fcntl.LOCK_EX)
        yield
    finally:
        try:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)
        finally:
            handle.close()


def fsync_directory(path: str) -> None:
    """Best-effort fsync of ``path``'s directory (persists a rename)."""
    parent = os.path.dirname(os.path.abspath(path))
    try:
        fd = os.open(parent, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic filesystems
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def atomic_replace_json(path: str, payload: Any) -> None:
    """Write ``payload`` as JSON to ``path`` atomically (tmp + rename).

    The temporary file is fsynced before the rename and the directory
    after it, so a crash leaves either the old file or the new one —
    never a torn mixture.  This is the write discipline behind store
    compaction, quarantine sidecars and the fleet's campaign files.
    """
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp_path = path + ".tmp"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, sort_keys=True, default=str)
        handle.write("\n")
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp_path, path)
    fsync_directory(path)


def _validate_fsync(fsync: str) -> str:
    if fsync not in FSYNC_POLICIES:
        raise ConfigurationError(
            f"unknown fsync policy {fsync!r}; "
            f"choose from {list(FSYNC_POLICIES)}"
        )
    return fsync


class Store:
    """The backend protocol: what every artifact store must provide.

    Shared across backends:

    * records are keyed by spec hash — ``put`` of an already-stored hash
      supersedes (last write wins), ``get``/``in`` are how
      ``execute_cached`` decides a cache hit;
    * ``verify()`` inspects integrity without mutating; ``compact()``
      rewrites the store clean (one record per hash, re-stamped at the
      current schema) and refuses to drop unknown-schema records.  Both
      read the backend's :meth:`_scan` and judge each record by
      :func:`classify_line` here — the one integrity rule;
    * ``sync()`` is the drain/flush path for graceful shutdown;
    * ``quarantined_entries()`` lists corrupt lines a JSONL load set
      aside instead of refusing to load (none for other backends);
    * ``select()`` answers filtered queries (see :meth:`select`).

    Subclasses implement the primitives; the query default here is a
    full scan over :meth:`records` — indexed backends override it.
    """

    path: str
    fsync: str

    # -- primitives (backend-specific) ------------------------------------#

    def get(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        raise NotImplementedError

    def put_record(self, record: Dict[str, Any]) -> Dict[str, Any]:
        """Write one pre-stamped record verbatim (provenance preserved).

        The raw-write primitive behind :meth:`put` and
        :func:`~repro.store.merge.merge_stores`: the record's
        ``schema``/``package``/``crc`` stamps are stored as given, never
        re-stamped, so a record copied from another shard keeps the
        provenance of the host that produced it.
        """
        raise NotImplementedError

    def records(self) -> List[Dict[str, Any]]:
        raise NotImplementedError

    def compact(self) -> Dict[str, Any]:
        raise NotImplementedError

    def sync(self) -> None:
        raise NotImplementedError

    def quarantined_entries(self) -> List[Dict[str, Any]]:
        return []

    def transaction(self) -> ContextManager[None]:
        """A block of writes SQLite commits as one, however the block
        ends; a JSONL log appends each write as it comes."""
        return nullcontext()

    # -- shared surface ----------------------------------------------------#

    def put(self, spec: RunSpec, metrics: Dict[str, Any]) -> Dict[str, Any]:
        """Stamp and durably store one executed spec's realized metrics."""
        return self.put_record(make_record(spec, metrics))

    def put_record_new(self, record: Dict[str, Any]
                       ) -> Tuple[Dict[str, Any], bool]:
        """Insert ``record`` only if its spec hash is absent.

        Returns ``(stored_record, inserted)``: on a hit the record that
        was already stored comes back with ``inserted=False`` and
        nothing is written.  This is the first-completion-wins primitive
        the fleet layer dedupes speculative re-executions through —
        backends override it with a genuinely atomic check-and-insert
        (the JSONL log composes both under its advisory lock, SQLite
        uses ``INSERT OR IGNORE``); this default is check-then-put.
        """
        existing = self.get(record["spec_hash"])
        if existing is not None:
            return existing, False
        return self.put_record(record), True

    def put_new(self, spec: RunSpec, metrics: Dict[str, Any]
                ) -> Tuple[Dict[str, Any], bool]:
        """First-completion-wins :meth:`put`; see :meth:`put_record_new`."""
        return self.put_record_new(make_record(spec, metrics))

    def __contains__(self, spec_hash: str) -> bool:
        return self.get(spec_hash) is not None

    def __len__(self) -> int:
        return len(self.records())

    # -- integrity -------------------------------------------------------#

    def _scan(self) -> Iterator[Tuple[Any, ...]]:
        """Every stored record as ``(line, raw, entry, problem, ...)``,
        classified by :func:`classify_line`.

        The default reads :attr:`path` as a JSONL log
        (:func:`scan_jsonl_lines`, whose fifth field is the byte offset);
        :class:`~repro.store.sqlite.SqliteStore` scans its rows by rowid.
        """
        return scan_jsonl_lines(self.path)

    def _integrity_findings(self) -> List[Dict[str, Any]]:
        """Whole-store corruption :meth:`verify` reports ahead of the
        per-record scan (a log file has none)."""
        return []

    def verify(self) -> Dict[str, Any]:
        """Scan the store for corruption without mutating anything.

        Returns a report: total ``lines`` scanned, ``records`` that
        parsed and checksummed clean, ``unique`` spec hashes,
        ``superseded`` duplicate lines, and a ``corrupt`` list of
        ``{"line", "reason"}`` entries (torn lines, checksum mismatches,
        non-object records, unknown schemas; for SQLite ``line`` is the
        rowid).  ``ok`` is True iff ``corrupt`` is empty — a clean store
        must report zero findings.
        """
        corrupt = self._integrity_findings()
        lines = 0
        hashes: Dict[str, int] = {}
        for line, _raw, entry, problem, *_ in self._scan():
            lines += 1
            if problem is not None:
                corrupt.append({"line": line, "reason": problem})
                continue
            hashes[entry["spec_hash"]] = hashes.get(entry["spec_hash"], 0) + 1
        valid = sum(hashes.values())
        return {
            "path": self.path,
            "lines": lines,
            "records": valid,
            "unique": len(hashes),
            "superseded": valid - len(hashes),
            "corrupt": corrupt,
            "ok": not corrupt,
        }

    def _compaction(self) -> Iterator[Tuple[Any, Optional[Dict[str, Any]]]]:
        """Compaction's keep/drop decision, shared by both backends.

        Yields ``(line, record)`` per scanned record: the record
        re-stamped at the current schema to keep, or ``None`` for a
        corrupt one to drop.  A record of unknown schema is not
        corruption — it may be valid data from a newer build — so
        compaction refuses (:class:`UnknownSchemaError`) instead.
        """
        for line, _raw, entry, problem, *_ in self._scan():
            if problem == "unknown-schema":
                check_schema(entry.get("schema"),
                             f"store {self.path!r} line {line}",
                             compacting=True)
            yield line, None if problem else restamp(entry)

    def select(
        self,
        where: Optional[Union[str, Callable[[Dict[str, Any]], bool]]] = None,
        limit: Optional[int] = None,
        **filters: Any,
    ) -> List[Dict[str, Any]]:
        """Filtered records, ordered by spec hash (deterministically).

        Keyword filters match spec fields first (``algorithm=``, ``n=``,
        ``seed=`` …), then metric fields (``completed=``, ``reason=`` …);
        a list/tuple/set value matches any member (SQL ``IN``).
        ``where`` is an extra predicate — a callable on the full record,
        or a string expression like ``"metrics.time < 100"`` (see
        :func:`repro.store.query.parse_where`).  The JSONL backend scans;
        :class:`~repro.store.sqlite.SqliteStore` pushes the indexed
        filters into SQL.
        """
        from .query import compile_where, record_matches

        predicate = compile_where(where)
        out = []
        for record in sorted(self.records(),
                             key=lambda r: r.get("spec_hash", "")):
            if not record_matches(record, filters):
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
            if limit is not None and len(out) >= limit:
                break
        return out


#: Filename suffixes routed to the SQLite backend by :func:`open_store`.
SQLITE_SUFFIXES = (".sqlite", ".sqlite3", ".db")

#: The first bytes of every SQLite database file.
SQLITE_HEADER = b"SQLite format 3\x00"


def backend_for_path(path: str) -> str:
    """The backend name ``path``'s extension selects (default jsonl)."""
    suffix = os.path.splitext(str(path))[1].lower()
    return "sqlite" if suffix in SQLITE_SUFFIXES else "jsonl"


def open_store(path: str, fsync: str = "never") -> Store:
    """Open an artifact store; the file name alone picks the backend.

    ``.sqlite``/``.sqlite3``/``.db`` paths open a
    :class:`~repro.store.sqlite.SqliteStore`, everything else the JSONL
    write-ahead log.  Each backend refuses the other's file by its
    content, so a store can never be misread under the wrong name.
    """
    if backend_for_path(path) == "sqlite":
        from .sqlite import SqliteStore

        return SqliteStore(path, fsync=fsync)
    from .jsonl import JsonlStore

    return JsonlStore(path, fsync=fsync)


def classify_line(raw: str):
    """Classify one stored record → ``(record-or-None, problem-or-None)``.

    The one readability rule for both backends: ``raw`` is a JSONL log
    line or a SQLite row's blob.  Problems are *corruption* (unparseable
    text; a non-object, or an object without a string ``spec_hash`` such
    as a JSON manifest line; a checksum mismatch) — recoverable by
    quarantine.  Unknown schema versions are not corruption and are left
    to the caller: the record is returned with problem
    ``"unknown-schema"`` so ``verify`` can report it while loaders
    refuse it (:func:`check_schema`).
    """
    try:
        entry = json.loads(raw)
    except json.JSONDecodeError:
        return None, "torn-or-unparseable"
    if not isinstance(entry, dict) \
            or not isinstance(entry.get("spec_hash"), str):
        return None, "not-a-record"
    schema = entry.get("schema")
    if not _known_schema(schema):
        return entry, "unknown-schema"
    if schema >= 2 and entry.get("crc") != record_crc(entry):
        return entry, "checksum-mismatch"
    return entry, None


def scan_jsonl_lines(path: str, start: int = 0, first_lineno: int = 1):
    """Scan a JSONL record log; yield
    ``(lineno, raw, record, problem, offset)``.

    The shared recovery scan behind :class:`JsonlStore` loading and
    ``verify``/``compact``; line classification is :func:`classify_line`
    (blank lines are skipped).  ``offset`` is the byte offset just past
    the line — where a later tail scan resumes.

    ``start``/``first_lineno`` support incremental tail scans: reading
    resumes at byte offset ``start``, numbering lines from
    ``first_lineno``.  Lines are decoded with ``errors="replace"`` so a
    corrupt byte sequence becomes an unparseable (quarantinable) line
    rather than an exception.

    A file that starts with the SQLite header is refused
    (:class:`ConfigurationError`) before its first line is judged: it is
    a database under a log's name, and every line of it would read as
    corruption that a compaction drops.
    """
    if not os.path.exists(path):
        return
    with open(path, "rb") as handle:
        if start:
            handle.seek(start)
        offset, lineno = start, first_lineno - 1
        for line in handle:
            if not offset and line.startswith(SQLITE_HEADER):
                raise ConfigurationError(
                    f"store {path!r} is a SQLite database, not a JSONL "
                    f"log; rename it with a .sqlite suffix"
                )
            offset += len(line)
            lineno += 1
            raw = line.decode("utf-8", errors="replace").rstrip("\n")
            if raw.strip():
                yield (lineno, raw, *classify_line(raw), offset)
