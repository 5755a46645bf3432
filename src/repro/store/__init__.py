"""Layered artifact store: durable WAL, indexed queries, shard merge.

The store is a package of cooperating layers, all speaking the same
provenance-stamped record format:

* :mod:`repro.store.base` — the record format (schema, CRC stamps,
  :func:`make_record`/:func:`metrics_of`) and the :class:`Store`
  backend protocol; :func:`open_store` picks a backend by the file
  name alone.
* :mod:`repro.store.jsonl` — :class:`JsonlStore`, the durable
  append-only JSONL write-ahead log:
  crash recovery by quarantine, advisory locking, fsync policies,
  cross-process freshness.
* :mod:`repro.store.sqlite` — :class:`SqliteStore`, the indexed query
  backend: spec-hash primary key, indexed spec/metric columns, WAL
  journal mode.
* :mod:`repro.store.batch` — :func:`execute_cached` /
  :func:`execute_batch`, the cache-hit-never-re-simulates execution
  layer over any backend, and the one entry point of every spec
  campaign (a grid is one ``execute_batch`` call into
  ``<out_dir>/<name>.jsonl``).
* :mod:`repro.store.merge` — deterministic shard merge for stores,
  the one bridge between backends, plus spec-hash sharding helpers.
* :mod:`repro.store.query` — the filter language behind
  :meth:`Store.select` and ``repro-gossip store query``.

Every public name is importable from here (``from repro.store import
JsonlStore, execute_batch``) and resolves on first use.
"""

from .._util import lazy_exports

# name -> defining submodule, imported on first use (see lazy_exports):
# a JSONL campaign does not load sqlite3, nor any campaign the merge tool.
_EXPORTS = {
    "FSYNC_POLICIES": "base",
    "STORE_SCHEMA_VERSION": "base",
    "Store": "base",
    "UnknownSchemaError": "base",
    "atomic_replace_json": "base",
    "backend_for_path": "base",
    "make_record": "base",
    "metrics_of": "base",
    "open_store": "base",
    "record_crc": "base",
    "execute_batch": "batch",
    "execute_cached": "batch",
    "JsonlStore": "jsonl",
    "MERGE_POLICIES": "merge",
    "MergeConflict": "merge",
    "merge_stores": "merge",
    "parse_shard": "merge",
    "shard_of": "merge",
    "shard_specs": "merge",
    "SqliteStore": "sqlite",
}

__all__ = sorted(_EXPORTS)

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
