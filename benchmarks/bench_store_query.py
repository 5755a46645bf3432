"""Benchmark STORE-QUERY: indexed SQLite selects vs. the JSONL full scan.

Builds a synthetic campaign store (genuine specs and provenance stamps,
fabricated metrics — no simulation runs), materializes it both as the
JSONL write-ahead log and as the SQLite index (via ``ingest``), and
times the two query paths a results consumer actually takes:

* **point lookup** — ``store.get(spec_hash)`` on a fresh handle, the
  cache-hit probe every ``execute_cached`` resume performs;
* **filtered select** — ``store.select(algorithm=..., n=...)`` on a
  fresh handle, the ``repro-gossip store query`` path.

A fresh handle per query is the honest cost model: the JSONL backend
must recovery-scan the whole log before it can answer anything, while
the SQLite backend walks an index. The two backends must return the
same answer (an exact check: it raises), and the gate is an order gate
against an oracle this repo does not optimise — the acceptance bar for
the layered store ("filtered selects over a 100k-record store without a
full JSONL scan").

``--quick`` shrinks the store to a few thousand records for CI and
gates on "sqlite is not slower"; the full run builds the 100k-record
store and gates on floors a tenth or less of what is measured.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile

import _harness as harness

from repro.spec.runspec import RunSpec
from repro.store import JsonlStore, SqliteStore, make_record

BENCHMARK = "store_query"

ALGORITHMS = ("ears", "sears", "tears")
NS = (16, 32, 64, 128)

FULL_RECORDS = 100_000
QUICK_RECORDS = 4_000

#: Speedup floors (sqlite over jsonl, fresh handle per query) of the point
#: lookup and the filtered select, keyed by ``quick``. Full: far below
#: measured (~6000x / ~180x) so machine variance never flakes.
FLOORS = {False: (10.0, 5.0), True: (1.0, 1.0)}


def synth_records(count):
    """``count`` records with genuine spec hashes and CRC stamps but
    fabricated metrics — corruption-free by construction."""
    records = []
    for index in range(count):
        spec = RunSpec(
            kind="gossip",
            algorithm=ALGORITHMS[index % len(ALGORITHMS)],
            n=NS[(index // len(ALGORITHMS)) % len(NS)],
            f=NS[(index // len(ALGORITHMS)) % len(NS)] // 4,
            d=2, delta=4, seed=index,
        )
        records.append(make_record(spec, {
            "completed": True,
            "reason": "completed",
            "time": 20 + (index % 977),
            "messages": 100 + (index % 7919),
        }))
    return records


def build_stores(workdir, records):
    jsonl_path = os.path.join(workdir, "runs.jsonl")
    with open(jsonl_path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record, default=str) + "\n")
    sqlite_path = os.path.join(workdir, "runs.sqlite")
    with SqliteStore(sqlite_path) as index:
        report = index.ingest(jsonl_path)
        harness.require_equal(
            (len(records), 0), (report["ingested"], report["quarantined"]),
            "ingest lost or quarantined records")
        index.sync()
    return jsonl_path, sqlite_path


def cells(quick):
    """A generator: the store is built once and lives until the harness
    has measured both queries."""
    count = QUICK_RECORDS if quick else FULL_RECORDS
    records = synth_records(count)
    probe = records[count // 2]["spec_hash"]
    with tempfile.TemporaryDirectory(prefix="bench-store-query-") as workdir:
        jsonl_path, sqlite_path = build_stores(workdir, records)
        del records  # the queries need the two files, not the list

        def cell(cell_id, note, floor, query):
            def measure(repeats):
                jsonl_s, reference = harness.best_of(
                    query, repeats, fresh=lambda: JsonlStore(jsonl_path))
                with contextlib.ExitStack() as handles:
                    sqlite_s, got = harness.best_of(
                        query, repeats, fresh=lambda: handles.enter_context(
                            SqliteStore(sqlite_path)))
                harness.require_equal(
                    reference, got, f"[{cell_id}] jsonl and sqlite disagreed")
                return harness.versus("jsonl_s", jsonl_s,
                                      "sqlite_s", sqlite_s)

            return harness.Cell(cell_id, note, {"records": count}, measure,
                                (harness.gate("speedup", ">=", floor),))

        point_floor, select_floor = FLOORS[quick]
        yield cell("point_lookup", "get(spec_hash) on a fresh handle",
                   point_floor, lambda store: store.get(probe))
        yield cell("filtered_select",
                   "select(algorithm='sears', n=64, seed in first 500) on a "
                   "fresh handle", select_floor,
                   lambda store: len(store.select(
                       algorithm="sears", n=64, seed=list(range(500)))))


if __name__ == "__main__":
    raise SystemExit(harness.main(__name__))
