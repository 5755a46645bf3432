"""Tests for experiment grids: a grid is a list of RunSpecs run through
``execute_batch`` into a spec store."""

import json
import sqlite3
import time

import pytest

import repro.store.batch as batch_module
from repro.experiments.grid import GridSpec, aggregate, open_grid_store
from repro.sim.errors import ConfigurationError
from repro.spec import RunSpec
from repro.store import execute_batch, open_store

AXES = {"algorithm": ["trivial"], "n": [8], "f": [0], "d": [1], "delta": [1]}


def small(name, seeds=(0, 1), **axes):
    return GridSpec(name, "gossip", grid={**AXES, **axes}, seeds=list(seeds))


def run(spec, out_dir=None, backend="jsonl", **options):
    """A grid run: its specs through ``execute_batch`` (into the grid's
    store under ``out_dir``, if any), shaped into rows."""
    store = (None if out_dir is None
             else open_grid_store(str(out_dir), spec.name, backend))
    return spec.rows(execute_batch(spec.specs(), store=store, **options))


@pytest.fixture
def executed(monkeypatch):
    """The (n, seed) of every spec that really ran (inline runs only)."""
    ran = []
    real_job = batch_module._spec_job

    def spy(spec_dict):
        ran.append((spec_dict["n"], spec_dict["seed"]))
        return real_job(spec_dict)

    monkeypatch.setattr(batch_module, "_spec_job", spy)
    return ran


class TestGridSpec:
    def test_cells_cross_product_with_seeds(self):
        spec = GridSpec("t", "gossip",
                        grid={"n": [8, 12], "algorithm": ["ears"]},
                        seeds=[0, 1])
        cells = spec.cells()
        assert len(cells) == 4
        assert {"n": 8, "algorithm": "ears", "seed": 0} in cells

    def test_specs_are_the_cells_as_runspecs(self):
        spec = GridSpec("t", "consensus",
                        grid={"n": [8, 12], "algorithm": ["all-to-all"]},
                        seeds=[3])
        assert spec.specs() == [
            RunSpec(kind="consensus", algorithm="all-to-all", n=n, seed=3)
            for n in (8, 12)
        ]

    def test_sub_grids_are_concatenated(self):
        # Coupled axes (f as a function of n): one sub-grid per n.
        spec = GridSpec("t", "gossip",
                        grid=[{"n": [n], "f": [n // 4]} for n in (8, 12)])
        assert [(c["n"], c["f"]) for c in spec.cells()] == [(8, 2), (12, 3)]

    def test_unknown_axis_is_named(self):
        spec = GridSpec("t", "gossip", grid={"n": [8], "f_frac": [0.25]})
        with pytest.raises(ConfigurationError, match="f_frac"):
            spec.specs()


class TestGridRunner:
    """A grid run is ``execute_batch(spec.specs(), store=...)`` plus
    ``spec.rows``; these pin what that pair does for a grid."""

    def test_runs_all_cells(self, executed):
        rows = run(small("run-all", n=[8, 10, 12], seeds=[0]))
        assert [r["n"] for r in rows] == [8, 10, 12]
        assert [r["messages"] for r in rows] == [n * (n - 1)
                                                 for n in (8, 10, 12)]
        assert executed == [(8, 0), (10, 0), (12, 0)]

    def test_in_memory_cache_avoids_reruns(self, executed):
        """What is left of the in-memory cache: duplicate cells within
        one call run once.  Across calls only ``out_dir`` caches."""
        spec = small("cache", n=[8, 8], seeds=[0, 1])
        rows = run(spec)
        assert len(rows) == 4 and rows[0] == rows[2]
        assert executed == [(8, 0), (8, 1)]
        run(spec)
        assert len(executed) == 4  # store-less: the second call re-runs

    def test_jsonl_persistence_across_runners(self, tmp_path, executed):
        spec = small("persist", n=[8, 12], seeds=[0])
        for backend in ("jsonl", "sqlite"):
            del executed[:]
            first = run(spec, tmp_path, backend)
            assert len(executed) == 2
            again = run(spec, tmp_path, backend)
            assert len(executed) == 2  # loaded from disk
            assert again == first
            assert (tmp_path / f"persist.{backend}").exists()

    def test_partial_grid_extension(self, tmp_path, executed):
        run(small("extend", n=[8], seeds=[0]), tmp_path)
        run(small("extend", n=[8, 12], seeds=[0]), tmp_path)
        assert executed == [(8, 0), (12, 0)]

    def test_unknown_recorder(self):
        """The second GridSpec field used to name a recorder; it is the
        spec kind, and an unknown one is refused like any bad spec."""
        with pytest.raises(ConfigurationError, match="alchemy"):
            run(GridSpec("t", "alchemy", grid={"n": [8]}))

    def test_tuple_valued_params_hit_cache_after_reload(self, tmp_path,
                                                        executed):
        # Regression: tuple-valued axis values (here consensus initial
        # values) must be cache hits when the store — where they come
        # back as lists — is reopened by a later run.
        spec = GridSpec("tuples", "consensus",
                        grid={"algorithm": ["all-to-all"], "n": [4],
                              "values": [(0, 1, 0, 1), (1, 1, 0, 0)]},
                        seeds=[0])
        run(spec, tmp_path)
        assert len(executed) == 2
        rows = run(spec, tmp_path)
        assert len(executed) == 2  # all cells served from the store
        assert len(rows) == 2

    def test_parallel_run_matches_sequential(self, tmp_path):
        spec = small("par", n=[8, 12], seeds=[0])
        sequential = run(spec)
        parallel = run(spec, processes=2)
        assert sequential == parallel

    def test_grid_store_and_execute_batch_satisfy_each_other(
            self, tmp_path, executed):
        """A grid's cache *is* a spec store, in both directions."""
        spec = small("shared", n=[8, 12])
        rows = run(spec, tmp_path)
        del executed[:]
        records = execute_batch(
            spec.specs(), store=open_store(str(tmp_path / "shared.jsonl")))
        assert executed == []
        assert [r["metrics"]["messages"] for r in records] == [
            r["messages"] for r in rows]

        other = small("other", n=[10])
        execute_batch(other.specs(),
                      store=open_store(str(tmp_path / "other.jsonl")))
        del executed[:]
        run(other, tmp_path)
        assert executed == []


class TestFaultTolerantGrid:
    """Cells that hang or raise degrade to failure rows, not crashes."""

    def test_partial_results_and_store_resume(self, tmp_path, monkeypatch):
        real_job = batch_module._spec_job

        def misbehaving(spec_dict):
            """Seed 1 raises, seed 2 hangs, everything else succeeds."""
            if spec_dict["seed"] == 1:
                raise RuntimeError("cell exploded")
            if spec_dict["seed"] == 2:
                time.sleep(3600)
            return real_job(spec_dict)

        # Workers are forked at the first parallel map, after the patch.
        monkeypatch.setattr(batch_module, "_spec_job", misbehaving)
        spec = small("chaos", seeds=[0, 1, 2, 3])
        rows = run(spec, tmp_path, processes=2, trial_timeout=1.0)
        by_seed = {r["seed"]: r for r in rows}
        assert by_seed[0]["completed"] and by_seed[0]["messages"] == 56
        assert by_seed[3]["completed"] and by_seed[3]["messages"] == 56
        assert not by_seed[1]["completed"]
        assert by_seed[1]["reason"] == "trial-failed"
        assert "cell exploded" in by_seed[1]["error"]
        assert not by_seed[2]["completed"]
        assert by_seed[2]["reason"] == "trial-timeout"
        # Failure rows never reach the store: a later run executes
        # exactly the failed cells and nothing else.
        stored = open_store(str(tmp_path / "chaos.jsonl"))
        assert sorted(r["spec"]["seed"] for r in stored.records()) == [0, 3]
        retried = []

        def spy(spec_dict):
            retried.append(spec_dict["seed"])
            return real_job(spec_dict)

        monkeypatch.setattr(batch_module, "_spec_job", spy)
        rows = run(spec, tmp_path)
        assert retried == [1, 2]
        assert all(r["completed"] for r in rows)


class TestLegacyFormats:
    """What grids wrote before they were spec stores: a JSONL cell log
    is refused, a SQLite ``cells`` table ignored (the cell-key manifest
    is refused too, see ``tests/test_run_jobs.py``)."""

    def test_jsonl_cell_log_is_refused_untouched(self, tmp_path):
        path = tmp_path / "old.jsonl"
        path.write_text(json.dumps({
            "params": {"algorithm": "trivial", "n": 8, "seed": 0},
            "record": {"completed": True, "messages": 56},
        }) + "\n")
        before = path.read_bytes()
        with pytest.raises(ConfigurationError, match="cell log"):
            run(small("old"), tmp_path)
        assert path.read_bytes() == before
        assert not (tmp_path / "old.jsonl.quarantine").exists()

    def test_sqlite_cells_table_is_ignored(self, tmp_path, executed):
        conn = sqlite3.connect(str(tmp_path / "old.sqlite"))
        conn.execute("CREATE TABLE cells (key TEXT PRIMARY KEY, "
                     "params TEXT NOT NULL, record TEXT NOT NULL)")
        conn.execute("INSERT INTO cells VALUES ('k', '{}', '{}')")
        conn.commit()
        conn.close()
        assert len(run(small("old"), tmp_path, "sqlite")) == 2
        assert len(executed) == 2
        run(small("old"), tmp_path, "sqlite")
        assert len(executed) == 2


#: The rows of this grid at commit cba37b0,
#: where a gossip row was ``cell ∪ gossip_recorder(**cell)``.
PARENT_GRID = GridSpec(
    "gossip-grid", "gossip",
    grid={"algorithm": ["trivial", "ears"], "n": [12], "f": [3],
          "d": [2], "delta": [2]},
    seeds=[0, 1],
)
PARENT_ROWS = [
    {"algorithm": algorithm, "d": 2, "delta": 2, "f": 3, "n": 12,
     "seed": seed, "completed": True, "reason": "completed", "time": t,
     "gathering_time": gathered, "messages": messages, "bits": 0,
     "realized_d": 2, "realized_delta": 2, "crashes": 0,
     "spec_hash": spec_hash}
    for algorithm, seed, t, gathered, messages, spec_hash in [
        ("trivial", 0, 5, 5, 132, "28011322766dcef6"),
        ("trivial", 1, 5, 5, 132, "2c870930cd2f7592"),
        ("ears", 0, 42, 20, 221, "89c63a78a184896c"),
        ("ears", 1, 52, 21, 236, "a1278036718019c9"),
    ]
]


class TestBuiltInRecorders:
    """The two spec kinds, end to end."""

    def test_gossip_recorder_end_to_end(self):
        spec = GridSpec(
            "gossip-grid", "gossip",
            grid={"algorithm": ["trivial", "ears"], "n": [12],
                  "f": [3], "d": [1], "delta": [1]},
            seeds=[0, 1],
        )
        rows = run(spec)
        assert len(rows) == 4
        assert all(r["completed"] for r in rows)
        trivial_rows = [r for r in rows if r["algorithm"] == "trivial"]
        assert all(r["messages"] == 12 * 11 for r in trivial_rows)

    def test_gossip_rows_equal_the_parent_rows(self, tmp_path):
        assert run(PARENT_GRID) == PARENT_ROWS
        for backend in ("jsonl", "sqlite"):
            assert run(PARENT_GRID, tmp_path, backend) == PARENT_ROWS  # fresh
            # ... and from the store
            assert run(PARENT_GRID, tmp_path, backend) == PARENT_ROWS

    def test_consensus_recorder_end_to_end(self):
        spec = GridSpec(
            "consensus-grid", "consensus",
            grid={"algorithm": ["all-to-all"], "n": [8], "f": [3]},
            seeds=[0],
        )
        rows = run(spec)
        assert rows[0]["agreement"] and rows[0]["validity"]

    def test_batch_engine_axis_runs_vectorized_chunks(self, monkeypatch):
        """An ``engine: ["batch"]`` axis advances a cell's seeds in one
        vectorized job instead of batches of one."""
        jobs = []
        real_unit = batch_module._unit_job

        def spy(job):
            jobs.append(job)
            return real_unit(job)

        monkeypatch.setattr(batch_module, "_unit_job", spy)
        spec = GridSpec("vec", "gossip",
                        grid={"algorithm": ["ears"], "n": [16], "f": [4],
                              "engine": ["batch"]},
                        seeds=range(4))
        rows = run(spec)
        assert all(r["completed"] for r in rows)
        assert len(jobs) == 1 and len(jobs[0]) == 4


class TestAggregate:
    def test_group_means(self):
        rows = [
            {"algo": "a", "n": 8, "messages": 10},
            {"algo": "a", "n": 8, "messages": 20},
            {"algo": "b", "n": 8, "messages": 100},
        ]
        means = aggregate(rows, by=["algo", "n"], value="messages")
        assert means[("a", 8)] == 15.0
        assert means[("b", 8)] == 100.0

    def test_none_values_skipped(self):
        rows = [
            {"algo": "a", "time": None},
            {"algo": "a", "time": 4},
        ]
        assert aggregate(rows, by=["algo"], value="time") == {("a",): 4.0}


def test_params_is_a_grid_axis():
    """An algorithm knob crosses like any other RunSpec field."""
    spec = GridSpec("eps", "gossip", seeds=[0], grid={
        "algorithm": ["sears"], "n": [32], "f": [8],
        "params": [{"eps": 0.25}, {"eps": 0.5}],
    })
    rows = run(spec)
    assert [row["params"] for row in rows] == [{"eps": 0.25}, {"eps": 0.5}]
    assert rows[0]["spec_hash"] != rows[1]["spec_hash"]
    assert rows[0]["completed"] and rows[1]["completed"]
    assert rows[0]["messages"] < rows[1]["messages"]
