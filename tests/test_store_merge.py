"""Shard merge: stores and the zero-missing resume contract.

A campaign split by spec hash (``shard_specs``) runs each slice against
its own store; merging the shards back must be
deterministic, order-independent, and leave ``--resume`` with zero
missing cells — the acceptance bar for sharded campaigns.
"""

import pytest

import repro.store.batch as batch_module
from repro import __version__
from repro.experiments import GracefulShutdown
from repro.spec import RunSpec
from repro.store import (
    MergeConflict,
    execute_batch,
    make_record,
    merge_stores,
    open_store,
    shard_of,
    shard_specs,
)

SPEC = RunSpec(algorithm="ears", n=16, f=4, d=1, delta=1, seed=0)
BACKENDS = ("jsonl", "sqlite")


def _specs(count=8):
    return [SPEC.replace(seed=seed) for seed in range(count)]


@pytest.fixture(params=BACKENDS)
def backend(request):
    return request.param


def _store(tmp_path, backend, name):
    suffix = "jsonl" if backend == "jsonl" else "sqlite"
    return open_store(str(tmp_path / f"{name}.{suffix}"))


class TestShardPartition:
    def test_shards_partition_specs_exactly(self):
        specs = _specs(32)
        shards = [shard_specs(specs, index, 4) for index in range(4)]
        flat = [spec for shard in shards for spec in shard]
        assert sorted(s.spec_hash for s in flat) == \
            sorted(s.spec_hash for s in specs)
        for index, shard in enumerate(shards):
            for spec in shard:
                assert shard_of(spec.spec_hash, 4) == index

    def test_shard_of_is_deterministic_and_bounded(self):
        for spec in _specs(16):
            index = shard_of(spec.spec_hash, 3)
            assert 0 <= index < 3
            assert shard_of(spec.spec_hash, 3) == index

    def test_bad_shard_arguments_refused(self):
        from repro.sim.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="out of range"):
            shard_specs(_specs(), 2, 2)
        with pytest.raises(ConfigurationError, match=">= 1"):
            shard_of(SPEC.spec_hash, 0)


class TestMergeStores:
    def test_disjoint_shards_union_cleanly(self, tmp_path, backend):
        specs = _specs(8)
        parts = [shard_specs(specs, index, 2) for index in range(2)]
        shards = []
        for index, part in enumerate(parts):
            store = _store(tmp_path, backend, f"shard{index}")
            execute_batch(part, store=store)
            shards.append(store)

        dest = _store(tmp_path, backend, "merged")
        report = merge_stores(dest, shards)
        assert report == {"added": 8, "identical": 0, "replaced": 0,
                          "conflicts": 0, "quarantined": 0}
        reference = _store(tmp_path, backend, "reference")
        execute_batch(specs, store=reference)
        by_hash = {r["spec_hash"]: r for r in reference.records()}
        assert {r["spec_hash"]: r for r in dest.records()} == by_hash

    def test_duplicate_identical_records_merge_silently(self, tmp_path,
                                                        backend):
        source = _store(tmp_path, backend, "shard")
        execute_batch(_specs(3), store=source)
        dest = _store(tmp_path, backend, "merged")
        merge_stores(dest, [source])
        report = merge_stores(dest, [source])
        assert report == {"added": 0, "identical": 3, "replaced": 0,
                          "conflicts": 0, "quarantined": 0}
        assert len(dest) == 3

    def test_sources_may_be_paths_or_iterables(self, tmp_path, backend):
        source = _store(tmp_path, backend, "shard")
        execute_batch(_specs(2), store=source)
        extra = make_record(SPEC.replace(seed=9), {"completed": True})
        dest = _store(tmp_path, backend, "merged")
        report = merge_stores(dest, [source.path, [extra]])
        assert report["added"] == 3
        assert dest.get(extra["spec_hash"]) == extra

    def _divergent_pair(self):
        """Same spec hash, different provenance: an old-build record and
        the current build's record for the same cell."""
        new = make_record(SPEC, {"completed": True, "time": 42})
        old = make_record(SPEC, {"completed": True, "time": 41})
        old["package"] = "0.9.0"
        from repro.store import record_crc

        old["crc"] = record_crc(old)
        return old, new

    def test_divergent_records_error_by_default(self, tmp_path, backend):
        old, new = self._divergent_pair()
        dest = _store(tmp_path, backend, "merged")
        dest.put_record(old)
        with pytest.raises(MergeConflict, match="divergent"):
            merge_stores(dest, [[new]])

    def test_a_conflict_keeps_what_merged_before_it(self, tmp_path,
                                                    backend):
        old, new = self._divergent_pair()
        before = make_record(SPEC.replace(seed=9), {"completed": True})
        dest = _store(tmp_path, backend, "merged")
        dest.put_record(old)
        with pytest.raises(MergeConflict, match="divergent"):
            merge_stores(dest, [[before, new]])
        assert open_store(dest.path).get(before["spec_hash"]) == before

    def test_merge_into_sqlite_is_one_transaction(self, tmp_path):
        records = [make_record(SPEC.replace(seed=seed), {"completed": True})
                   for seed in range(200)]
        dest = _store(tmp_path, "sqlite", "merged")
        statements = []
        dest._connect().set_trace_callback(statements.append)
        assert merge_stores(dest, [records])["added"] == 200
        assert sum(sql.startswith("BEGIN") for sql in statements) == 1
        assert len(open_store(dest.path)) == 200

    def test_provenance_policy_keeps_newest_build(self, tmp_path, backend):
        old, new = self._divergent_pair()
        dest = _store(tmp_path, backend, "merged")
        dest.put_record(old)
        report = merge_stores(dest, [[new]], policy="provenance")
        assert report["conflicts"] == 1 and report["replaced"] == 1
        assert dest.get(SPEC.spec_hash)["package"] == __version__

        # Order independence: merging the other way keeps the same winner.
        other = _store(tmp_path, backend, "reversed")
        other.put_record(new)
        report = merge_stores(other, [[old]], policy="provenance")
        assert report["conflicts"] == 1 and report["replaced"] == 0
        assert other.get(SPEC.spec_hash) == dest.get(SPEC.spec_hash)


class TestShardedCampaignResume:
    def test_merged_shards_resume_with_zero_missing(self, tmp_path,
                                                    backend, monkeypatch):
        """The acceptance contract: run a campaign as two spec-hash
        shards, merge the stores, and a ``--resume`` of the full
        campaign against the merged store finds nothing left to
        execute."""
        specs = _specs(10)
        shard_stores = []
        for index in range(2):
            part = shard_specs(specs, index, 2)
            assert part, "shard unexpectedly empty"
            store = _store(tmp_path, backend, f"shard{index}")
            execute_batch(part, store=store,
                          shutdown=GracefulShutdown(verbose=False))
            shard_stores.append(store)

        merged_store = _store(tmp_path, backend, "merged")
        report = merge_stores(merged_store, shard_stores)
        assert report["added"] == len(specs)

        def boom(spec_dict):
            raise AssertionError(
                "resume of merged shards must not re-execute anything"
            )

        monkeypatch.setattr(batch_module, "_spec_job", boom)
        records = execute_batch(specs, store=merged_store,
                                shutdown=GracefulShutdown(verbose=False))
        assert [r["spec_hash"] for r in records] == \
            [spec.spec_hash for spec in specs]
        assert all(r["metrics"]["completed"] for r in records)


class TestMergeCli:
    def test_merge_without_a_source_is_refused(self, tmp_path, capsys):
        """Argparse refuses a merge with nothing to merge in (exit 2)
        instead of leaving an empty store behind."""
        from repro.cli import main

        dest = tmp_path / "d.sqlite"
        with pytest.raises(SystemExit) as info:
            main(["store", "merge", str(dest)])
        assert info.value.code == 2
        assert "sources" in capsys.readouterr().err
        assert not dest.exists()

    def test_merge_of_a_torn_log_exits_1_and_counts_it(self, tmp_path,
                                                      capsys):
        """A lossy copy is not a silent success: the survivors land,
        the torn tail is counted, and the exit code says so."""
        from repro.cli import main

        log = tmp_path / "runs.jsonl"
        source = open_store(str(log))
        for spec in _specs(2):
            source.put(spec, {"completed": True})
        with open(log, "a", encoding="utf-8") as handle:
            handle.write('{"schema": 2, "spec_hash": "ab')  # torn append
        dest = str(tmp_path / "d.sqlite")
        assert main(["store", "merge", dest, str(log)]) == 1
        out = capsys.readouterr().out
        assert "2 added" in out
        assert "1 corrupt source line(s) quarantined, not merged" in out
        assert len(open_store(dest)) == 2

    @pytest.mark.parametrize("argv", [
        ["store", "ingest", "d.sqlite", "s.jsonl"],
        ["store", "export", "s.sqlite", "d.jsonl"],
    ])
    def test_removed_bridges_are_invalid_choices(self, capsys, argv):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "'merge'" in err

    @pytest.mark.parametrize("argv", [
        ["batch", "--specs", "s.jsonl", "--store", "x.jsonl"],
        ["run", "--spec", "s.json", "--store", "x.jsonl"],
        ["store", "verify", "x.jsonl"],
        ["store", "merge", "d.sqlite", "x.jsonl"],
    ])
    def test_backend_flag_is_gone_where_the_user_names_the_store(
            self, capsys, argv):
        from repro.cli import main

        with pytest.raises(SystemExit) as info:
            main(argv + ["--backend", "sqlite"])
        assert info.value.code == 2
        assert "--backend" in capsys.readouterr().err

    def test_merged_shard_stores_resume_to_nothing(self, tmp_path, capsys):
        from repro.cli import main

        specs = tmp_path / "specs.jsonl"
        specs.write_text("".join(
            spec.to_json(indent=None) + "\n" for spec in _specs(4)))
        for index in range(2):
            assert main(["batch", "--specs", str(specs), "--shard",
                         f"{index}/2", "--resume",
                         str(tmp_path / f"shard{index}.sqlite")]) == 0
        merged = str(tmp_path / "merged.sqlite")
        assert main(["store", "merge", merged,
                     str(tmp_path / "shard0.sqlite"),
                     str(tmp_path / "shard1.sqlite")]) == 0
        capsys.readouterr()
        with pytest.MonkeyPatch.context() as patched:
            patched.setattr(batch_module, "_spec_job", _never)
            assert main(["batch", "--specs", str(specs),
                         "--resume", merged]) == 0
        assert "batch: 4/4 spec(s) ok" in capsys.readouterr().out


def _never(spec_dict):
    raise AssertionError("a merged campaign's resume must run nothing")
