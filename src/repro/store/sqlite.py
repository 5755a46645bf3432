"""Indexed SQLite backend for the artifact store.

Where :class:`~repro.store.jsonl.JsonlStore` is the durable append-only
write-ahead format, :class:`SqliteStore` is the *query* form: every
record is stored verbatim (same provenance stamps, same CRC) in a table
keyed by spec hash, with the hot spec fields (``kind``/``algorithm``/
``n``/``f``/``seed``) and headline metrics (``completed``/``time``/
``messages``) extracted into indexed columns.  Point lookups and
filtered selects hit the index instead of scanning and re-parsing a
JSONL log — the difference between O(log N) and O(N) once campaigns
reach 10^5+ records (see ``benchmarks/bench_store_query.py``).

The two forms carry the same records, so
:func:`~repro.store.merge.merge_stores` (``repro-gossip store merge``)
moves them either way, provenance preserved byte for byte.

Durability maps onto SQLite's own machinery: the database runs in WAL
journal mode (readers never block the writer; a SIGKILL mid-commit is
rolled back or recovered natively on the next open), and the ``fsync``
policy selects ``synchronous=FULL`` (``"always"``) or
``synchronous=OFF`` (``"never"``).  The connection runs in autocommit
so every ``put`` is immediately visible to other processes; crossing
writers are serialized by SQLite's own locking (``busy_timeout``), not
the JSONL flock.
"""

from __future__ import annotations

import json
import os
import sqlite3
from contextlib import contextmanager
from typing import Any, Dict, Iterator, List, Optional, Tuple

from ..sim.errors import ConfigurationError
from .base import (
    Store,
    UnknownSchemaError,
    _validate_fsync,
    check_schema,
    classify_line,
)

__all__ = ["SqliteStore"]

#: Spec fields extracted into indexed columns.
_SPEC_COLUMNS = ("kind", "algorithm", "n", "f", "seed")
#: Metric fields extracted into indexed columns.
_METRIC_COLUMNS = ("completed", "time", "messages")

_LAYOUT_VERSION = 1

_DDL = """\
CREATE TABLE IF NOT EXISTS records (
    spec_hash TEXT PRIMARY KEY,
    kind TEXT, algorithm TEXT, n INTEGER, f INTEGER, seed INTEGER,
    completed INTEGER, time REAL, messages INTEGER,
    schema INTEGER NOT NULL, package TEXT,
    record TEXT NOT NULL
);
CREATE INDEX IF NOT EXISTS records_algorithm_n ON records (algorithm, n);
CREATE INDEX IF NOT EXISTS records_n ON records (n);
CREATE INDEX IF NOT EXISTS records_seed ON records (seed);
CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT);
"""


class SqliteStore(Store):
    """Spec-hash-indexed store of execution records in one SQLite file.

    Same record semantics as the JSONL log — keyed by spec hash, last
    write wins, provenance stamps stored verbatim — plus indexed
    :meth:`select` and native crash recovery.  ``fsync`` maps to
    ``PRAGMA synchronous`` (see :data:`~repro.store.base.FSYNC_POLICIES`).
    """

    backend = "sqlite"

    def __init__(self, path: str, fsync: str = "never") -> None:
        self.path = str(path)
        self.fsync = _validate_fsync(fsync)
        self._conn: Optional[sqlite3.Connection] = None

    # -- connection -------------------------------------------------------#

    def _connect(self) -> sqlite3.Connection:
        if self._conn is not None:
            return self._conn
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        conn = sqlite3.connect(self.path, isolation_level=None)
        try:
            conn.execute("PRAGMA busy_timeout = 30000")
            # Before the switch to WAL: that switch syncs the file at the
            # connection's synchronous level, which would otherwise still
            # be the default FULL.
            conn.execute("PRAGMA synchronous = {}".format(
                "FULL" if self.fsync == "always" else "OFF"))
            conn.execute("PRAGMA journal_mode = WAL")
            conn.executescript(_DDL)
        except sqlite3.DatabaseError as exc:
            conn.close()
            if isinstance(exc, sqlite3.OperationalError):
                raise  # locked, read-only, ...: not the file's format
            raise ConfigurationError(
                f"store {self.path!r} is not a SQLite database ({exc}); "
                f"name a .jsonl path for the JSONL backend, or move the "
                f"file aside"
            ) from None
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'layout'").fetchone()
        if row is None:
            conn.execute(
                "INSERT OR IGNORE INTO meta (key, value) VALUES (?, ?)",
                ("layout", str(_LAYOUT_VERSION)))
        elif int(row[0]) > _LAYOUT_VERSION:
            conn.close()
            raise UnknownSchemaError(
                f"store {self.path!r} uses sqlite layout {row[0]}; "
                f"this build writes layout {_LAYOUT_VERSION}"
            )
        self._conn = conn
        return conn

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None

    def __enter__(self) -> "SqliteStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- record (de)serialization -----------------------------------------#

    @staticmethod
    def _row_of(record: Dict[str, Any]) -> Dict[str, Any]:
        spec = record.get("spec") or {}
        metrics = record.get("metrics") or {}
        row = {"spec_hash": record["spec_hash"]}
        for column in _SPEC_COLUMNS:
            row[column] = spec.get(column)
        for column in _METRIC_COLUMNS:
            value = metrics.get(column)
            if isinstance(value, bool):
                value = int(value)
            elif not isinstance(value, (int, float, str, type(None))):
                value = None
            row[column] = value
        row["schema"] = record.get("schema")
        row["package"] = record.get("package")
        row["record"] = json.dumps(record, sort_keys=True, default=str)
        return row

    def _decode(self, blob: str, schema: int) -> Dict[str, Any]:
        check_schema(schema, f"store {self.path!r}")
        return json.loads(blob)

    # -- queries ----------------------------------------------------------#

    def get(self, spec_hash: str) -> Optional[Dict[str, Any]]:
        row = self._connect().execute(
            "SELECT record, schema FROM records WHERE spec_hash = ?",
            (spec_hash,)).fetchone()
        if row is None:
            return None
        return self._decode(row[0], row[1])

    def __len__(self) -> int:
        return self._connect().execute(
            "SELECT COUNT(*) FROM records").fetchone()[0]

    def records(self) -> List[Dict[str, Any]]:
        rows = self._connect().execute(
            "SELECT record, schema FROM records ORDER BY spec_hash"
        ).fetchall()
        return [self._decode(blob, schema) for blob, schema in rows]

    def select(self, where=None, limit=None, **filters):
        """Indexed select: known spec/metric filters become SQL ``WHERE``
        clauses against the extracted columns; everything else (unknown
        keys, ``where`` predicates) post-filters the decoded records.
        See :meth:`repro.store.base.Store.select` for the interface.
        """
        from .query import compile_where, record_matches

        indexed = {}
        residual = {}
        for key, value in filters.items():
            if key in _SPEC_COLUMNS or key in _METRIC_COLUMNS:
                indexed[key] = value
            else:
                residual[key] = value
        clauses, params = [], []
        for key, value in indexed.items():
            if isinstance(value, (list, tuple, set, frozenset)):
                options = sorted(value, key=repr)
                marks = ", ".join("?" for _ in options)
                clauses.append(f"{key} IN ({marks})")
                params.extend(int(v) if isinstance(v, bool) else v
                              for v in options)
            else:
                clauses.append(f"{key} = ?")
                params.append(int(value) if isinstance(value, bool)
                              else value)
        sql = "SELECT record, schema FROM records"
        if clauses:
            sql += " WHERE " + " AND ".join(clauses)
        sql += " ORDER BY spec_hash"
        predicate = compile_where(where)
        out = []
        for blob, schema in self._connect().execute(sql, params):
            record = self._decode(blob, schema)
            if residual and not record_matches(record, residual):
                continue
            if predicate is not None and not predicate(record):
                continue
            out.append(record)
            if limit is not None and len(out) >= limit:
                break
        return out

    # -- writes -----------------------------------------------------------#

    def put_record(self, record: Dict[str, Any]) -> Dict[str, Any]:
        row = self._row_of(record)
        columns = list(row)
        self._connect().execute(
            "INSERT OR REPLACE INTO records ({}) VALUES ({})".format(
                ", ".join(f'"{c}"' for c in columns),
                ", ".join("?" for _ in columns)),
            [row[c] for c in columns])
        return record

    @contextmanager
    def transaction(self) -> Iterator[None]:
        conn = self._connect()
        conn.execute("BEGIN IMMEDIATE")
        try:
            yield
        finally:
            conn.execute("COMMIT")

    def put_record_new(self, record: Dict[str, Any]
                       ) -> Tuple[Dict[str, Any], bool]:
        """Atomic insert-if-absent via ``INSERT OR IGNORE``.

        The primary key on ``spec_hash`` makes the race-free check free:
        a concurrent writer that got there first leaves our insert a
        no-op, and the record it stored comes back with
        ``inserted=False`` (first completion wins, never superseded).
        """
        row = self._row_of(record)
        columns = list(row)
        cursor = self._connect().execute(
            "INSERT OR IGNORE INTO records ({}) VALUES ({})".format(
                ", ".join(f'"{c}"' for c in columns),
                ", ".join("?" for _ in columns)),
            [row[c] for c in columns])
        if cursor.rowcount == 1:
            return record, True
        return self.get(record["spec_hash"]), False

    def sync(self) -> None:
        """Checkpoint the WAL into the main database file."""
        if self._conn is None:
            return
        self._conn.execute("PRAGMA wal_checkpoint(FULL)")

    # -- integrity --------------------------------------------------------#

    def _scan(self):
        """Every row by rowid as ``(rowid, blob, entry, problem)``: the
        blob goes through the same :func:`classify_line` a JSONL log
        line does, so a bit flip inside a stored blob is caught even
        though the database file itself is well-formed."""
        rows = self._connect().execute(
            "SELECT rowid, record FROM records ORDER BY rowid").fetchall()
        for rowid, blob in rows:
            yield (rowid, blob, *classify_line(blob))

    def _integrity_findings(self) -> List[Dict[str, Any]]:
        """SQLite's own file check (``PRAGMA integrity_check``)."""
        integrity = self._connect().execute(
            "PRAGMA integrity_check").fetchone()[0]
        if integrity != "ok":  # pragma: no cover - needs a mangled db
            return [{"line": 0, "reason": "sqlite-integrity"}]
        return []

    def compact(self) -> Dict[str, Any]:
        """Re-stamp every record at the current schema and VACUUM.

        The primary key already enforces one record per hash, so there
        are never superseded rows to drop.  In one transaction, rows
        :meth:`~repro.store.base.Store._compaction` keeps are rewritten
        re-stamped (upgrading v1 records) and corrupt rows are deleted;
        an unknown-schema row aborts the whole transaction.  ``VACUUM``
        then reclaims space.
        """
        conn = self._connect()
        kept = 0
        dropped = 0
        conn.execute("BEGIN")
        try:
            for rowid, record in self._compaction():
                if record is None:
                    conn.execute("DELETE FROM records WHERE rowid = ?",
                                 (rowid,))
                    dropped += 1
                    continue
                kept += 1
                row = self._row_of(record)
                conn.execute(
                    "UPDATE records SET schema = ?, record = ? "
                    "WHERE rowid = ?",
                    (row["schema"], row["record"], rowid))
        except BaseException:
            conn.execute("ROLLBACK")
            raise
        conn.execute("COMMIT")
        conn.execute("VACUUM")
        return {
            "kept": kept,
            "dropped_superseded": 0,
            "dropped_corrupt": dropped,
        }
