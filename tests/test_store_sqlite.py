"""SQLite backend specifics: the merge bridge to and from the JSONL
log, corruption counting on merge, cross-handle visibility, layout
guards.

Backend-agnostic store semantics live in ``test_store.py`` (conformance
suite over jsonl|sqlite); this file covers what only the indexed backend
does: taking the JSONL write-ahead log into the index and back through
``merge_stores``, and counting exactly what the fault injectors plant.
"""

import json
import random
import sqlite3

import pytest

from repro.faults.store_faults import ChecksumFlipFault, TornWriteFault
from repro.sim.errors import ConfigurationError
from repro.spec import RunSpec
from repro.store import (
    JsonlStore,
    STORE_SCHEMA_VERSION,
    SqliteStore,
    UnknownSchemaError,
    make_record,
    merge_stores,
)

SPEC = RunSpec(algorithm="ears", n=16, f=4, d=1, delta=1, seed=0)


def _seed_jsonl(path, count=4):
    store = JsonlStore(str(path))
    for seed in range(count):
        store.put(SPEC.replace(seed=seed), {
            "completed": True, "time": 10 + seed, "messages": 100 + seed,
        })
    return store


class TestMergeBridge:
    def test_round_trip_preserves_records_verbatim(self, tmp_path):
        wal = _seed_jsonl(tmp_path / "runs.jsonl")
        index = SqliteStore(str(tmp_path / "runs.sqlite"))
        report = merge_stores(index, [wal.path])
        assert (report["added"], report["quarantined"]) == (4, 0)
        assert sorted(index.records(), key=lambda r: r["spec_hash"]) == \
            sorted(wal.records(), key=lambda r: r["spec_hash"])

        out = tmp_path / "exported.jsonl"
        assert merge_stores(JsonlStore(str(out)), [index])["added"] == 4
        # The dump is one line per record, in spec-hash order.
        assert out.read_text() == "".join(
            json.dumps(record) + "\n" for record in index.records())
        replayed = JsonlStore(str(out))
        assert sorted(replayed.records(), key=lambda r: r["spec_hash"]) == \
            sorted(wal.records(), key=lambda r: r["spec_hash"])
        assert replayed.verify()["ok"]

    def test_merge_is_last_write_wins(self, tmp_path):
        wal = JsonlStore(str(tmp_path / "runs.jsonl"))
        wal.put(SPEC, {"completed": True, "time": 1})
        wal.put(SPEC, {"completed": True, "time": 42})
        index = SqliteStore(str(tmp_path / "runs.sqlite"))
        report = merge_stores(index, [str(tmp_path / "runs.jsonl")])
        assert report["added"] == 1  # the log's one live record
        assert len(index) == 1
        assert index.get(SPEC.spec_hash)["metrics"]["time"] == 42

    def test_merge_refuses_future_schema_dest_untouched(self, tmp_path):
        wal_path = tmp_path / "runs.jsonl"
        _seed_jsonl(wal_path, count=2)
        future = make_record(SPEC.replace(seed=99), {"completed": True})
        future["schema"] = STORE_SCHEMA_VERSION + 1
        with open(wal_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(future) + "\n")

        index = SqliteStore(str(tmp_path / "runs.sqlite"))
        with pytest.raises(UnknownSchemaError, match="schema"):
            merge_stores(index, [str(wal_path)])
        # The source is refused before any record is written.
        assert len(index) == 0

    @pytest.mark.parametrize("fault_cls", [TornWriteFault, ChecksumFlipFault])
    def test_merge_counts_injected_corruption(self, tmp_path, fault_cls):
        """The chaos-campaign contract: merging a corrupted WAL into
        the index counts exactly the injected lines as quarantined and
        adds exactly the survivors."""
        wal_path = str(tmp_path / "runs.jsonl")
        _seed_jsonl(wal_path, count=5)
        info = fault_cls().inject(wal_path, random.Random(7))

        index = SqliteStore(str(tmp_path / "runs.sqlite"))
        report = merge_stores(index, [wal_path])
        assert report["quarantined"] == info["corrupted_lines"]
        assert report["added"] == info["surviving_records"]
        entries = JsonlStore(wal_path).quarantined_entries()
        assert [e["line"] for e in entries] == [info["line"]]
        assert entries[0]["reason"] in (
            "torn-or-unparseable", "checksum-mismatch",
        )
        assert index.verify()["ok"]
        assert index.quarantined_entries() == []


class TestWalVisibility:
    def test_put_is_visible_to_a_second_handle_immediately(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        writer = SqliteStore(path)
        writer.put(SPEC, {"completed": True, "time": 3})
        reader = SqliteStore(path)
        assert reader.get(SPEC.spec_hash)["metrics"]["time"] == 3
        writer.put(SPEC.replace(seed=1), {"completed": True})
        # Autocommit: no sync/close needed for the reader to see it.
        assert len(reader) == 2

    def test_runs_in_wal_journal_mode(self, tmp_path):
        store = SqliteStore(str(tmp_path / "runs.sqlite"))
        store.put(SPEC, {"completed": True})
        mode = store._connect().execute(
            "PRAGMA journal_mode").fetchone()[0]
        assert mode == "wal"
        store.sync()  # checkpoints without error
        store.close()

    @pytest.mark.parametrize("fsync, level", [("never", "OFF"),
                                               ("always", "FULL")])
    def test_synchronous_is_set_before_the_switch_to_wal(
            self, tmp_path, monkeypatch, fsync, level):
        """The switch to WAL syncs the new file at the connection's
        synchronous level, so ``fsync="never"`` must be in force first:
        otherwise creating a store pays an fsync at the default FULL."""
        statements = []
        connect = sqlite3.connect

        def traced_connect(*args, **kwargs):
            conn = connect(*args, **kwargs)
            conn.set_trace_callback(statements.append)
            return conn

        monkeypatch.setattr(sqlite3, "connect", traced_connect)
        SqliteStore(str(tmp_path / "runs.sqlite"), fsync=fsync).put(
            SPEC, {"completed": True})
        pragmas = [s for s in statements if s.startswith("PRAGMA ")]
        assert pragmas.index(f"PRAGMA synchronous = {level}") < \
            pragmas.index("PRAGMA journal_mode = WAL")

    def test_context_manager_closes(self, tmp_path):
        with SqliteStore(str(tmp_path / "runs.sqlite")) as store:
            store.put(SPEC, {"completed": True})
            assert store._conn is not None
        assert store._conn is None


class TestGuards:
    def test_rejects_unknown_fsync_policy(self, tmp_path):
        with pytest.raises(ConfigurationError, match="fsync"):
            SqliteStore(str(tmp_path / "runs.sqlite"), fsync="sometimes")

    def test_refuses_newer_layout_version(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        SqliteStore(path).put(SPEC, {"completed": True})
        with sqlite3.connect(path) as conn:
            conn.execute("UPDATE meta SET value = '99' "
                         "WHERE key = 'layout'")
        with pytest.raises(UnknownSchemaError, match="layout"):
            SqliteStore(path).get(SPEC.spec_hash)

    def test_verify_catches_blob_bit_flip(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        store = SqliteStore(path)
        store.put(SPEC, {"completed": True, "time": 5})
        store.put(SPEC.replace(seed=1), {"completed": True})
        store.close()
        with sqlite3.connect(path) as conn:
            blob = conn.execute(
                "SELECT record FROM records WHERE spec_hash = ?",
                (SPEC.spec_hash,)).fetchone()[0]
            mangled = blob.replace('"time": 5', '"time": 6')
            assert mangled != blob
            conn.execute(
                "UPDATE records SET record = ? WHERE spec_hash = ?",
                (mangled, SPEC.spec_hash))

        report = SqliteStore(path).verify()
        assert not report["ok"]
        assert [c["reason"] for c in report["corrupt"]] == \
            ["checksum-mismatch"]
        # Compaction drops the mangled row and keeps the clean one.
        result = SqliteStore(path).compact()
        assert result == {"kept": 1, "dropped_superseded": 0,
                          "dropped_corrupt": 1}
        assert SqliteStore(path).verify()["ok"]

    def test_non_object_blob_is_not_a_record(self, tmp_path):
        """A blob that parses but is not an object is corruption with a
        reason, exactly as the same JSONL line would be — not an
        AttributeError out of verify or compact."""
        path = str(tmp_path / "runs.sqlite")
        store = SqliteStore(path)
        store.put(SPEC, {"completed": True})
        store.put(SPEC.replace(seed=1), {"completed": True})
        store.close()
        with sqlite3.connect(path) as conn:
            (rowid,) = conn.execute(
                "SELECT rowid FROM records WHERE spec_hash = ?",
                (SPEC.spec_hash,)).fetchone()
            conn.execute("UPDATE records SET record = '[1]' WHERE rowid = ?",
                         (rowid,))

        assert SqliteStore(path).verify()["corrupt"] == [
            {"line": rowid, "reason": "not-a-record"}]
        assert SqliteStore(path).compact()["dropped_corrupt"] == 1
        assert SqliteStore(path).verify()["ok"]
