"""Durability layer of the artifact store: checksums, recovery, compaction."""

import builtins
import json

import pytest

from repro.sim.errors import ConfigurationError
from repro.spec import RunSpec
from repro.store import (
    JsonlStore,
    STORE_SCHEMA_VERSION,
    UnknownSchemaError,
    execute_cached,
    make_record,
    record_crc,
)

SPEC = RunSpec(algorithm="ears", n=16, f=4, d=1, delta=1, seed=0)


def _filled_store(path, seeds=(0, 1, 2)):
    store = JsonlStore(str(path))
    for seed in seeds:
        store.put(SPEC.replace(seed=seed), {"completed": True, "time": seed})
    return store


def test_records_carry_verifying_crc(tmp_path):
    store = _filled_store(tmp_path / "runs.jsonl")
    for record in store.records():
        assert record["crc"] == record_crc(record)
    # The stamp survives the JSON round trip through disk.
    for record in JsonlStore(store.path).records():
        assert record["crc"] == record_crc(record)


def test_truncated_trailing_record_salvages_valid_prefix(tmp_path):
    """Regression: a SIGKILL mid-append used to crash every later load
    with json.JSONDecodeError; the valid prefix must load instead."""
    path = tmp_path / "runs.jsonl"
    _filled_store(path)
    whole = path.read_text()
    lines = whole.splitlines()
    path.write_text("\n".join(lines[:-1]) + "\n" + lines[-1][:25])

    store = JsonlStore(str(path))
    assert len(store) == 2  # the torn tail is gone, the prefix loads
    assert store.last_recovery["quarantined"][0]["reason"] == (
        "torn-or-unparseable"
    )


def test_put_after_torn_tail_keeps_new_record_intact(tmp_path):
    """Regression: appending onto a crash-torn tail (no trailing
    newline) used to concatenate the new record into the torn line,
    silently losing it; put() must write a separating newline first."""
    path = tmp_path / "runs.jsonl"
    _filled_store(path)
    whole = path.read_text()
    path.write_text(whole[:-30])  # tear the final record, no newline

    store = JsonlStore(str(path))
    record = store.put(SPEC.replace(seed=99), {"completed": True})

    fresh = JsonlStore(str(path))
    assert fresh.get(record["spec_hash"]) == record
    report = fresh.verify()
    # Only the pre-existing torn line is corrupt; the append survived.
    assert [f["reason"] for f in report["corrupt"]] == [
        "torn-or-unparseable"
    ]
    assert report["records"] == 3


def test_checksum_mismatch_is_quarantined(tmp_path):
    path = tmp_path / "runs.jsonl"
    _filled_store(path)
    lines = path.read_text().splitlines()
    # Corrupt a metrics value in the middle record; its CRC now lies.
    lines[1] = lines[1].replace('"time": 1', '"time": 999')
    path.write_text("\n".join(lines) + "\n")

    store = JsonlStore(str(path))
    assert len(store) == 2
    entries = store.quarantined_entries()
    assert [e["reason"] for e in entries] == ["checksum-mismatch"]
    assert entries[0]["line"] == 2
    assert '"time": 999' in entries[0]["raw"]


def test_quarantine_sidecar_written_atomically(tmp_path):
    path = tmp_path / "runs.jsonl"
    _filled_store(path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"torn')
    store = JsonlStore(str(path))
    len(store)
    assert (tmp_path / "runs.jsonl.quarantine").exists()
    assert not (tmp_path / "runs.jsonl.quarantine.tmp").exists()


def test_verify_is_read_only_and_exact(tmp_path):
    path = tmp_path / "runs.jsonl"
    _filled_store(path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"torn')
    before = path.read_text()

    report = JsonlStore(str(path)).verify()
    assert not report["ok"]
    assert report["records"] == 3
    assert report["corrupt"] == [
        {"line": 4, "reason": "torn-or-unparseable"}
    ]
    assert path.read_text() == before  # verify never mutates the log


def test_verify_clean_store_reports_ok(tmp_path):
    report = _filled_store(tmp_path / "runs.jsonl").verify()
    assert report["ok"]
    assert report["corrupt"] == []
    assert report["records"] == report["unique"] == 3


def test_compact_drops_superseded_and_corrupt(tmp_path):
    path = tmp_path / "runs.jsonl"
    store = _filled_store(path)
    # Supersede seed 0 (same hash appended again) and tear the tail.
    store.put(SPEC.replace(seed=0), {"completed": True, "time": 42})
    with open(path, "a", encoding="utf-8") as handle:
        handle.write('{"torn')

    fresh = JsonlStore(str(path))
    len(fresh)  # load → quarantine sidecar appears
    result = fresh.compact()
    assert result == {
        "kept": 3, "dropped_superseded": 1, "dropped_corrupt": 1,
    }
    assert not (tmp_path / "runs.jsonl.quarantine").exists()
    # Last-write-wins semantics preserved through compaction.
    assert fresh.get(SPEC.replace(seed=0).spec_hash)["metrics"]["time"] == 42
    assert JsonlStore(str(path)).verify()["ok"]


def test_compact_refuses_unknown_schema(tmp_path):
    """Records from a newer build are not corruption; compaction must
    not silently delete lines it cannot interpret."""
    path = tmp_path / "runs.jsonl"
    _filled_store(path)
    future = make_record(SPEC.replace(seed=9), {"completed": True})
    future["schema"] = STORE_SCHEMA_VERSION + 1
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(future) + "\n")
    before = path.read_text()

    with pytest.raises(UnknownSchemaError, match="will not compact"):
        JsonlStore(str(path)).compact()
    assert path.read_text() == before  # the log is untouched


def test_compact_restamps_v1_records(tmp_path):
    path = tmp_path / "runs.jsonl"
    record = make_record(SPEC, {"completed": True})
    del record["crc"]
    record["schema"] = 1
    path.write_text(json.dumps(record) + "\n")

    store = JsonlStore(str(path))
    store.compact()
    (upgraded,) = JsonlStore(str(path)).records()
    assert upgraded["schema"] == STORE_SCHEMA_VERSION
    assert upgraded["crc"] == record_crc(upgraded)


def test_v1_records_still_load_and_cache_hit(tmp_path):
    """Stores written before the checksum era keep working unchanged."""
    path = tmp_path / "runs.jsonl"
    record = make_record(SPEC, {"completed": True, "time": 7})
    del record["crc"]
    record["schema"] = 1
    path.write_text(json.dumps(record) + "\n")

    store = JsonlStore(str(path))
    assert len(store) == 1
    got, hit = execute_cached(SPEC, store)
    assert hit and got["metrics"]["time"] == 7
    assert store.verify()["ok"]


def test_put_writes_disk_before_cache(tmp_path, monkeypatch):
    """A failed append must leave cache and disk agreeing (both without
    the record) — the cache may not run ahead of durability."""
    store = _filled_store(tmp_path / "runs.jsonl")
    victim = SPEC.replace(seed=99)
    real_open = builtins.open

    def failing_open(file, mode="r", *args, **kwargs):
        if "a" in mode and str(file) == store.path:
            raise OSError("disk full")
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", failing_open)
    with pytest.raises(OSError, match="disk full"):
        store.put(victim, {"completed": True})
    monkeypatch.undo()

    assert victim.spec_hash not in store  # cache was not mutated
    assert victim.spec_hash not in JsonlStore(store.path)


def test_fsync_policy_validated(tmp_path):
    with pytest.raises(ConfigurationError, match="fsync policy"):
        JsonlStore(str(tmp_path / "runs.jsonl"), fsync="sometimes")
    store = JsonlStore(str(tmp_path / "runs.jsonl"), fsync="always")
    store.put(SPEC, {"completed": True})
    assert len(JsonlStore(store.path)) == 1


def test_concurrent_appends_interleave_whole_lines(tmp_path):
    """Two store objects appending to the same path never tear lines."""
    path = str(tmp_path / "runs.jsonl")
    one, two = JsonlStore(path), JsonlStore(path)
    for seed in range(4):
        (one if seed % 2 else two).put(
            SPEC.replace(seed=seed), {"completed": True}
        )
    report = JsonlStore(path).verify()
    assert report["ok"] and report["records"] == 4
