"""Backend conformance: the artifact-store surface over jsonl|sqlite.

Every test here runs against both backends through the
:class:`repro.store.Store` protocol — put/get/len, provenance stamps,
cache-hit behavior, batch execution, schema refusal.  Format-specific
durability mechanics live in ``test_store_durability.py`` (JSONL
recovery scan) and ``test_store_sqlite.py`` (the merge bridge, WAL).
"""

import json

import pytest

import repro.store.batch as batch_module
from repro import __version__
from repro.spec import RunSpec
from repro.store import (
    JsonlStore,
    SqliteStore,
    STORE_SCHEMA_VERSION,
    UnknownSchemaError,
    execute_batch,
    execute_cached,
    make_record,
    merge_stores,
    metrics_of,
    open_store,
)

SPEC = RunSpec(algorithm="ears", n=16, f=4, d=1, delta=1, seed=0)

BACKENDS = ("jsonl", "sqlite")


def store_path(tmp_path, backend, name="runs"):
    suffix = "jsonl" if backend == "jsonl" else "sqlite"
    return str(tmp_path / f"{name}.{suffix}")


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


@pytest.fixture
def fresh_store(tmp_path, backend):
    """A factory reopening the same store path (fresh handle each call)."""
    def factory(**kwargs):
        return open_store(store_path(tmp_path, backend), **kwargs)
    factory.backend = backend
    factory.path = store_path(tmp_path, backend)
    return factory


def test_open_store_picks_backend_by_extension(tmp_path):
    assert isinstance(open_store(str(tmp_path / "a.jsonl")), JsonlStore)
    assert isinstance(open_store(str(tmp_path / "a.sqlite")), SqliteStore)
    assert isinstance(open_store(str(tmp_path / "a.db")), SqliteStore)
    assert isinstance(open_store(str(tmp_path / "a.log")), JsonlStore)


def test_sqlite_file_under_a_jsonl_name_is_refused_untouched(tmp_path,
                                                              capsys):
    """A database under a log's name is refused by its header: compacting
    it as a log would drop every "line" of it as corruption."""
    from repro.cli import main

    path = tmp_path / "runs.jsonl"
    index = SqliteStore(str(path))
    index.put(SPEC, {"completed": True})
    index.close()
    before = path.read_bytes()
    assert main(["store", "compact", str(path)]) == 2
    err = capsys.readouterr().err
    assert "is a SQLite database" in err and ".sqlite" in err
    assert path.read_bytes() == before
    # Refused before the lock: no sidecar is left beside the file.
    assert [entry.name for entry in tmp_path.iterdir()] == ["runs.jsonl"]


def test_record_is_provenance_stamped(fresh_store):
    record, hit = execute_cached(SPEC, fresh_store())
    assert not hit
    assert record["schema"] == STORE_SCHEMA_VERSION
    assert record["spec_hash"] == SPEC.spec_hash
    assert record["spec"] == SPEC.to_dict()
    assert record["package"] == __version__
    assert record["metrics"]["completed"] is True


def test_stored_hash_is_cache_hit(fresh_store, monkeypatch):
    first, hit = execute_cached(SPEC, fresh_store())
    assert not hit

    # A fresh store object re-reading the file must serve the record
    # without running any simulation at all.
    def boom(*args, **kwargs):
        raise AssertionError("cache hit must not execute the spec")

    monkeypatch.setattr(batch_module, "execute", boom)
    again, hit = execute_cached(SPEC, fresh_store())
    assert hit
    assert again == first


def test_put_get_len_contains(fresh_store):
    store = fresh_store()
    specs = [SPEC.replace(seed=seed) for seed in range(3)]
    for seed, spec in enumerate(specs):
        store.put(spec, {"completed": True, "time": seed})
    assert len(store) == 3
    assert specs[1].spec_hash in store
    assert SPEC.replace(seed=99).spec_hash not in store
    assert store.get(specs[2].spec_hash)["metrics"]["time"] == 2
    assert store.get("feedfacefeedface") is None
    hashes = {r["spec_hash"] for r in fresh_store().records()}
    assert hashes == {spec.spec_hash for spec in specs}


def test_last_write_wins_per_hash(fresh_store):
    store = fresh_store()
    store.put(SPEC, {"completed": True, "time": 1})
    store.put(SPEC, {"completed": True, "time": 42})
    assert len(store) == 1
    assert fresh_store().get(SPEC.spec_hash)["metrics"]["time"] == 42


def test_verify_clean_store_reports_ok(fresh_store):
    store = fresh_store()
    for seed in range(3):
        store.put(SPEC.replace(seed=seed), {"completed": True})
    report = store.verify()
    assert report["ok"]
    assert report["corrupt"] == []
    assert report["records"] == report["unique"] == 3


def test_compact_then_verify_clean(fresh_store):
    store = fresh_store()
    for seed in range(3):
        store.put(SPEC.replace(seed=seed), {"completed": True})
    store.put(SPEC.replace(seed=0), {"completed": True, "time": 42})
    result = store.compact()
    assert result["kept"] == 3
    assert result["dropped_corrupt"] == 0
    # Last-write-wins semantics preserved through compaction.
    reopened = fresh_store()
    assert reopened.get(SPEC.replace(seed=0).spec_hash)[
        "metrics"]["time"] == 42
    assert reopened.verify()["ok"]


def test_unknown_schema_version_refused(fresh_store):
    future = make_record(SPEC, {"completed": True})
    future["schema"] = STORE_SCHEMA_VERSION + 1
    fresh_store().put_record(future)
    with pytest.raises(UnknownSchemaError, match="schema version"):
        fresh_store().get(SPEC.spec_hash)
    with pytest.raises(UnknownSchemaError, match="will not compact"):
        fresh_store().compact()


def test_unknown_schema_refusal_names_store_and_schema(fresh_store):
    future = make_record(SPEC, {"completed": True})
    future["schema"] = 99
    fresh_store().put_record(future)
    for refuse in (lambda store: store.get(SPEC.spec_hash),
                   lambda store: store.compact()):
        with pytest.raises(UnknownSchemaError) as info:
            refuse(fresh_store())
        assert fresh_store.path in str(info.value)
        assert "schema version 99" in str(info.value)


#: verify() reason -> the text planted in place of a clean record, as a
#: JSONL line and as a SQLite blob alike.
PLANTS = {
    "checksum-mismatch": lambda record: json.dumps(
        dict(record, metrics={"completed": False})),
    "not-a-record": lambda record: "[1]",
    "unknown-schema": lambda record: json.dumps(dict(record, schema=99)),
}


@pytest.mark.parametrize("reason", sorted(PLANTS))
def test_planted_record_gets_one_reason_on_both_backends(tmp_path, reason):
    """One integrity rule: the same planted text is the same finding in
    a JSONL log, in a SQLite row, and when the log is merged into a
    fresh SQLite store."""
    log = tmp_path / "runs.jsonl"
    wal = JsonlStore(str(log))
    for seed in range(3):
        wal.put(SPEC.replace(seed=seed), {"completed": True})
    index = SqliteStore(str(tmp_path / "runs.sqlite"))
    merge_stores(index, [str(log)])
    victim = SPEC.replace(seed=1).spec_hash
    planted = PLANTS[reason](wal.get(victim))

    lines = log.read_text().splitlines()
    lines[1] = planted
    log.write_text("\n".join(lines) + "\n")
    conn = index._connect()
    (rowid,) = conn.execute("SELECT rowid FROM records WHERE spec_hash = ?",
                            (victim,)).fetchone()
    conn.execute("UPDATE records SET record = ? WHERE rowid = ?",
                 (planted, rowid))

    assert JsonlStore(str(log)).verify()["corrupt"] == [
        {"line": 2, "reason": reason}]
    assert index.verify()["corrupt"] == [{"line": rowid, "reason": reason}]

    replay = SqliteStore(str(tmp_path / "replay.sqlite"))
    if reason == "unknown-schema":
        with pytest.raises(UnknownSchemaError) as info:
            merge_stores(replay, [str(log)])
        assert str(log) in str(info.value)
        assert "schema version 99" in str(info.value)
    else:
        assert merge_stores(replay, [str(log)])["quarantined"] == 1
        assert [entry["reason"]
                for entry in JsonlStore(str(log)).quarantined_entries()] \
            == [reason]


#: A line of a JSON campaign manifest: a known schema, but no spec hash.
MANIFEST_LINE = json.dumps({"schema": 1, "meta": {"driver": "sweep"},
                            "submitted": {}, "completed": {}})


@pytest.mark.parametrize("scan", ["jsonl-load", "jsonl-verify",
                                  "sqlite-merge", "sqlite-verify"])
def test_object_without_spec_hash_is_not_a_record(tmp_path, scan):
    """An object without a string ``spec_hash`` — an old manifest line
    in a store path, say — is quarantined as ``not-a-record`` by every
    scan of both backends, not a ``KeyError``."""
    log = tmp_path / "runs.jsonl"
    JsonlStore(str(log)).put(SPEC, {"completed": True})
    with open(log, "a", encoding="utf-8") as handle:
        handle.write(MANIFEST_LINE + "\n")
    index = SqliteStore(str(tmp_path / "runs.sqlite"))
    if scan == "jsonl-load":
        store = JsonlStore(str(log))
        assert len(store) == 1
        assert [entry["reason"] for entry in store.quarantined_entries()] \
            == ["not-a-record"]
    elif scan == "jsonl-verify":
        assert JsonlStore(str(log)).verify()["corrupt"] == [
            {"line": 2, "reason": "not-a-record"}]
    elif scan == "sqlite-merge":
        report = merge_stores(index, [str(log)])
        assert (report["added"], report["quarantined"]) == (1, 1)
        assert len(index) == 1
    else:
        index.put(SPEC, {"completed": True})
        conn = index._connect()
        (rowid,) = conn.execute("SELECT rowid FROM records").fetchone()
        conn.execute("UPDATE records SET record = ? WHERE rowid = ?",
                     (MANIFEST_LINE, rowid))
        assert index.verify()["corrupt"] == [
            {"line": rowid, "reason": "not-a-record"}]


def test_v1_records_load_and_compact_restamps(fresh_store):
    """Stores written before the checksum era keep working unchanged,
    and compaction upgrades them to the current schema."""
    record = make_record(SPEC, {"completed": True, "time": 7})
    del record["crc"]
    record["schema"] = 1
    fresh_store().put_record(record)

    store = fresh_store()
    assert len(store) == 1
    got, hit = execute_cached(SPEC, store)
    assert hit and got["metrics"]["time"] == 7
    assert store.verify()["ok"]

    store.compact()
    (upgraded,) = fresh_store().records()
    assert upgraded["schema"] == STORE_SCHEMA_VERSION
    from repro.store import record_crc

    assert upgraded["crc"] == record_crc(upgraded)


def test_select_filters_spec_and_metric_fields(fresh_store):
    store = fresh_store()
    for n in (16, 32):
        for seed in range(3):
            spec = SPEC.replace(n=n, f=n // 4, seed=seed)
            store.put(spec, {"completed": True, "time": n + seed})
    assert len(store.select(n=16)) == 3
    assert len(store.select(n=[16, 32])) == 6
    assert len(store.select(n=32, seed=0)) == 1
    assert store.select(algorithm="nonexistent") == []
    assert len(store.select(where="time >= 32")) == 3
    assert len(store.select(where="metrics.time >= 32 and seed == 0")) == 1
    assert len(store.select(n=16, limit=2)) == 2
    picked = store.select(where=lambda r: r["spec"]["seed"] == 2)
    assert len(picked) == 2
    # Deterministic order: sorted by spec hash on both backends.
    hashes = [r["spec_hash"] for r in store.select()]
    assert hashes == sorted(hashes)


def test_batch_executes_only_missing_specs(fresh_store, monkeypatch):
    specs = [SPEC.replace(seed=seed) for seed in range(3)]
    execute_batch(specs[:2], store=fresh_store())

    executed = []
    real_job = batch_module._spec_job

    def spy(spec_dict):
        executed.append(spec_dict["seed"])
        return real_job(spec_dict)

    monkeypatch.setattr(batch_module, "_spec_job", spy)
    records = execute_batch(specs, store=fresh_store())
    assert executed == [2]
    assert [r["spec_hash"] for r in records] == [s.spec_hash for s in specs]


def test_batch_dedupes_within_batch(fresh_store, monkeypatch):
    executed = []
    real_job = batch_module._spec_job

    def spy(spec_dict):
        executed.append(spec_dict["seed"])
        return real_job(spec_dict)

    monkeypatch.setattr(batch_module, "_spec_job", spy)
    records = execute_batch([SPEC, SPEC], store=fresh_store())
    assert executed == [0]
    assert records[0] == records[1]


def test_batch_dedupes_within_batch_without_store(monkeypatch):
    executed = []
    real_job = batch_module._spec_job

    def spy(spec_dict):
        executed.append(spec_dict["seed"])
        return real_job(spec_dict)

    monkeypatch.setattr(batch_module, "_spec_job", spy)
    records = execute_batch([SPEC, SPEC.replace(seed=1), SPEC])
    assert executed == [0, 1]
    assert records[0] == records[2]
    assert [r["spec"]["seed"] for r in records] == [0, 1, 0]


# -- backend-independent pieces (no store parametrization needed) --------- #

def test_missing_schema_stamp_refused(tmp_path):
    path = tmp_path / "runs.jsonl"
    path.write_text('{"spec_hash": "00", "metrics": {}}\n')
    with pytest.raises(UnknownSchemaError):
        len(JsonlStore(str(path)))


def test_batch_without_store_returns_records_in_order():
    specs = [SPEC.replace(seed=seed) for seed in (3, 4)]
    records = execute_batch(specs)
    assert [r["spec_hash"] for r in records] == [s.spec_hash for s in specs]
    assert all(r["metrics"]["completed"] for r in records)


def test_metrics_round_trip_through_json(tmp_path):
    from repro.spec import execute

    metrics = metrics_of(execute(SPEC))
    assert metrics == json.loads(json.dumps(metrics))


def test_consensus_metrics(fresh_store):
    spec = RunSpec(kind="consensus", algorithm="tears", n=8, f=2, seed=0)
    record, _ = execute_cached(spec, fresh_store())
    metrics = record["metrics"]
    assert metrics["agreement"] and metrics["validity"]
    assert metrics["rounds"] >= 1
