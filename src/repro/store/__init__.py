"""Layered artifact store: durable WAL, indexed queries, shard merge.

The store is a package of cooperating layers, all speaking the same
provenance-stamped record format:

* :mod:`repro.store.base` — the record format (schema, CRC stamps,
  :func:`make_record`/:func:`metrics_of`) and the :class:`Store`
  backend protocol; :func:`open_store` picks a backend by extension.
* :mod:`repro.store.jsonl` — :class:`JsonlStore` (alias
  :class:`RunStore`), the durable append-only JSONL write-ahead log:
  crash recovery by quarantine, advisory locking, fsync policies,
  cross-process freshness.
* :mod:`repro.store.sqlite` — :class:`SqliteStore`, the indexed query
  backend: spec-hash primary key, indexed spec/metric columns, WAL
  journal mode, ``ingest``/``export`` round-trips with the JSONL form.
* :mod:`repro.store.batch` — :func:`execute_cached` /
  :func:`execute_batch`, the cache-hit-never-re-simulates execution
  layer over any backend (a :class:`~repro.experiments.grid.GridRunner`
  grid is one ``execute_batch`` call into ``<out_dir>/<name>.jsonl``).
* :mod:`repro.store.merge` — deterministic shard merge for stores and
  campaign manifests, plus spec-hash sharding helpers.
* :mod:`repro.store.query` — the filter language behind
  :meth:`Store.select` and ``repro-gossip store query``.

Everything the pre-package flat module exported is re-exported here, so
``from repro.store import RunStore, execute_batch`` keeps working.
"""

from .base import (
    BACKENDS,
    FSYNC_POLICIES,
    STORE_SCHEMA_VERSION,
    Store,
    UnknownSchemaError,
    atomic_replace_json,
    backend_for_path,
    make_record,
    metrics_of,
    open_store,
    record_crc,
)
from .batch import execute_batch, execute_cached, failed_record
from .jsonl import JsonlStore, RunStore
from .merge import (
    MERGE_POLICIES,
    MergeConflict,
    merge_manifests,
    merge_stores,
    shard_of,
    shard_specs,
)
from .sqlite import SqliteStore

__all__ = [
    "BACKENDS",
    "FSYNC_POLICIES",
    "JsonlStore",
    "MERGE_POLICIES",
    "MergeConflict",
    "RunStore",
    "STORE_SCHEMA_VERSION",
    "SqliteStore",
    "Store",
    "UnknownSchemaError",
    "atomic_replace_json",
    "backend_for_path",
    "execute_batch",
    "execute_cached",
    "failed_record",
    "make_record",
    "merge_manifests",
    "merge_stores",
    "metrics_of",
    "open_store",
    "record_crc",
    "shard_of",
    "shard_specs",
]
