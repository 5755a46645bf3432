"""Driver parity: every view of ``run_jobs`` returns the same results
plain, drainable into a store, and killed-then-resumed from that store
— and a parallel call creates exactly one worker pool."""

import json

import pytest

from repro.experiments import (
    GracefulShutdown,
    GridSpec,
    TrialPool,
    open_grid_store,
    run_jobs,
    theorem1_rows,
    theorem1_specs,
)
from repro.sim.errors import ConfigurationError
from repro.spec import RunSpec
from repro.store import SqliteStore, execute_batch, open_store
from repro.workloads.sweeps import quarter, sweep_points, sweep_specs

SPEC = RunSpec(algorithm="ears", n=16, f=4, d=1, delta=1, seed=0)
SPECS = [SPEC.replace(seed=seed) for seed in range(4)]
#: Two eligible cells asking for the vectorized engine (two chunks), an
#: ineligible cell asking for it too, and scalar-engine specs riding the
#: same call.
MIXED = (
    [spec.replace(engine="batch") for spec in SPECS]
    + [SPEC.replace(n=24, f=6, seed=seed, engine="batch")
       for seed in range(2)]
    + [SPEC.replace(algorithm="tears", engine="batch")]
    + [SPEC.replace(n=12, f=3, seed=seed) for seed in range(2)]
)
GRID = GridSpec(
    "parity", "gossip",
    grid={"algorithm": ["trivial", "ears"], "n": [8, 12], "f": [0],
          "d": [1], "delta": [1]},
    seeds=[0],
)


def _metrics(records):
    return [(r["spec_hash"], r["metrics"]) for r in records]


def _batch_with_store(tmp_path, tag, **kwargs):
    kwargs.setdefault("store", open_store(str(tmp_path / f"{tag}.jsonl")))
    return _metrics(execute_batch(SPECS, **kwargs))


def _batch_storeless(tmp_path, tag, **kwargs):
    return _metrics(execute_batch(SPECS, **kwargs))


def _batch_mixed(tmp_path, tag, **kwargs):
    kwargs.setdefault("store", open_store(str(tmp_path / f"{tag}.sqlite")))
    return _metrics(execute_batch(MIXED, **kwargs))


def _grid(tmp_path, tag, **kwargs):
    kwargs.setdefault("store",
                      open_grid_store(str(tmp_path / tag), GRID.name))
    return GRID.rows(execute_batch(GRID.specs(), **kwargs))


def _sweep(tmp_path, tag, **kwargs):
    specs = sweep_specs("ears", ns=[16, 24], f_of_n=quarter, seeds=range(2))
    return sweep_points(specs, execute_batch(specs, **kwargs))


def _theorem1(tmp_path, tag, **kwargs):
    records = execute_batch(theorem1_specs(
        n=32, f=8, seeds=[0, 1], algorithms=["trivial"], samples=2,
        phase1_cap=200), **kwargs)
    return _metrics(records), theorem1_rows(records)


VIEWS = [_batch_with_store, _batch_storeless, _batch_mixed, _grid,
         _sweep, _theorem1]


class _Killed(BaseException):
    """Stands in for SIGKILL: nothing on the way out may catch it."""


def _resumable(path):
    """A resumable campaign's options: its store and a drain hook."""
    return {"store": open_store(path),
            "shutdown": GracefulShutdown(verbose=False)}


@pytest.mark.parametrize("view", VIEWS)
def test_modes_agree(view, tmp_path, monkeypatch):
    plain = view(tmp_path, "plain")
    assert view(tmp_path, "stored",
                **_resumable(str(tmp_path / "stored.sqlite"))) == plain

    # Die right after the first record reaches the store, then resume.
    path = str(tmp_path / "killed.sqlite")
    real_put = SqliteStore.put

    def put_then_die(self, spec, metrics):
        real_put(self, spec, metrics)
        raise _Killed

    with monkeypatch.context() as patched:
        patched.setattr(SqliteStore, "put", put_then_die)
        with pytest.raises(_Killed):
            view(tmp_path, "killed", **_resumable(path))
    assert len(open_store(path)) == 1
    assert view(tmp_path, "killed", **_resumable(path)) == plain


@pytest.mark.parametrize("view", VIEWS)
def test_one_call_creates_one_pool(view, tmp_path, monkeypatch):
    created = []
    real_ensure = TrialPool._ensure_pool

    def spy(self):
        if self._pool is None:
            created.append(self)
        return real_ensure(self)

    monkeypatch.setattr(TrialPool, "_ensure_pool", spy)
    view(tmp_path, "pooled", processes=2)
    assert len(created) == 1


def test_grid_manifest_written_by_an_older_build_is_refused(tmp_path,
                                                            capsys):
    """Grid manifests were keyed by canonical cell params.  ``--resume``
    now names a store, so such a file is refused by name, left as it
    was, and nothing runs."""
    from repro.cli import main

    old = tmp_path / "old.json"
    old.write_text(json.dumps({
        "schema": 1, "meta": {"driver": "grid", "grid": GRID.name},
        "submitted": {json.dumps(cell, sort_keys=True): cell
                      for cell in GRID.cells()},
    }))
    before = old.read_bytes()

    assert main(["grid", "--algorithms", "trivial", "--ns", "8",
                 "--seeds", "1", "--out-dir", str(tmp_path / "grid"),
                 "--resume", str(old)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "names a JSON manifest" in err
    assert old.read_bytes() == before
    assert not (tmp_path / "grid").exists()  # nothing ran


def _never(job):
    raise AssertionError("an invalid campaign must not run a job")


@pytest.mark.parametrize("options", [
    {"processes": 0},
], ids=["processes"])
def test_invalid_campaign_numbers_are_refused_before_any_job(options):
    with pytest.raises(ConfigurationError, match=next(iter(options))):
        run_jobs(_never, [(1,)], **options)
