"""Experiment grids: cartesian sweeps with caching and parallelism.

The benches each drive one artifact; exploratory work wants bigger
sweeps — every algorithm × n × (d, δ) × failure fraction × seed — without
re-running cells after a crash or an interrupt. :class:`GridRunner`
provides that:

* a **grid spec** names a registered record function and the parameter
  lists to cross;
* results are flat dicts appended to a JSONL store keyed by the cell's
  canonical parameters, so re-running a grid only executes missing cells;
* cells are independent, so an optional process pool runs them in
  parallel (record functions are module-level and referenced by name,
  keeping everything picklable).

Registered record functions: ``"gossip"`` (one `run_gossip` cell) and
``"consensus"`` (one `run_consensus` cell); applications and custom
experiments can register their own via :func:`register_recorder`.
"""

from __future__ import annotations

import importlib
import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..store.cells import canonicalize_params, cell_key, open_cell_log
from .pool import failure_record, summarize_outcomes

Recorder = Callable[..., Dict[str, Any]]

_RECORDERS: Dict[str, Recorder] = {}
#: Where each recorder was registered from; shipped with parallel jobs so a
#: freshly spawned worker can import the module (whose import re-registers).
_RECORDER_MODULES: Dict[str, str] = {}


def register_recorder(name: str, fn: Recorder) -> None:
    """Register a module-level record function under ``name``.

    For parallel grids the registration must happen at import time of
    ``fn``'s module: workers receive the module path alongside each job
    and import it before resolving the recorder, which is what makes
    custom recorders work under spawn-style multiprocessing (where child
    processes do not inherit the parent's registry).
    """
    _RECORDERS[name] = fn
    _RECORDER_MODULES[name] = getattr(fn, "__module__", "") or ""


def get_recorder(name: str) -> Recorder:
    try:
        return _RECORDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown recorder {name!r}; registered: {sorted(_RECORDERS)}"
        ) from None


# -- built-in recorders ---------------------------------------------------- #

def gossip_recorder(**params: Any) -> Dict[str, Any]:
    """One gossip cell: returns the complexity measures as a flat record.

    Cell params are :class:`~repro.spec.runspec.RunSpec` fields; the
    record is stamped with the cell's canonical spec hash. A grid axis
    ``"engine": ["batch"]`` routes eligible cells through the vectorized
    batch engine (as a batch of one — ``execute`` is the engine choke
    point); ineligible cells fall back to the scalar engines unchanged,
    and ``engine`` never enters the spec hash, so cached cells satisfy
    any engine choice.
    """
    from ..spec.builder import execute
    from ..spec.runspec import RunSpec

    spec = RunSpec(kind="gossip", **params)
    run = execute(spec)
    return {
        "completed": run.completed,
        "reason": run.reason,
        "time": run.completion_time,
        "gathering_time": run.gathering_time,
        "messages": run.messages,
        "bits": run.bits,
        "realized_d": run.realized_d,
        "realized_delta": run.realized_delta,
        "crashes": run.crashes,
        "spec_hash": spec.spec_hash,
    }


def consensus_recorder(**params: Any) -> Dict[str, Any]:
    """One consensus cell (``gossip`` is accepted as a legacy alias for
    the spec's ``algorithm`` field)."""
    from ..spec.builder import execute
    from ..spec.runspec import RunSpec

    params = dict(params)
    if "gossip" in params:
        params["algorithm"] = params.pop("gossip")
    spec = RunSpec(kind="consensus", **params)
    run = execute(spec)
    return {
        "completed": run.completed,
        "reason": run.reason,
        "time": run.decision_time,
        "messages": run.messages,
        "rounds": run.rounds_used,
        "agreement": run.agreement,
        "validity": run.validity,
        "crashes": run.crashes,
        "spec_hash": spec.spec_hash,
    }


register_recorder("gossip", gossip_recorder)
register_recorder("consensus", consensus_recorder)


# -- grid machinery --------------------------------------------------------#

@dataclass(frozen=True)
class GridSpec:
    """A named sweep: recorder + parameter lists to cross + seeds."""

    name: str
    recorder: str
    grid: Dict[str, Sequence[Any]]
    seeds: Sequence[int] = (0,)

    def cells(self) -> List[Dict[str, Any]]:
        """All parameter combinations, seed included."""
        keys = sorted(self.grid)
        combos = itertools.product(*(self.grid[k] for k in keys))
        cells = []
        for combo in combos:
            base = dict(zip(keys, combo))
            for seed in self.seeds:
                cell = dict(base)
                cell["seed"] = seed
                cells.append(cell)
        return cells


def _run_cell(args):
    """Execute one cell in a (possibly child) process.

    ``args`` carries the recorder's registration module so spawn-started
    workers — which begin with an empty registry — can import it; if the
    import does not re-register the recorder, fail with a message that
    says what to fix rather than a bare KeyError.
    """
    recorder_name, recorder_module, params = args
    if recorder_name not in _RECORDERS and recorder_module:
        try:
            importlib.import_module(recorder_module)
        except ImportError:
            pass
    if recorder_name not in _RECORDERS:
        raise KeyError(
            f"recorder {recorder_name!r} is not registered in this worker "
            f"process (importing {recorder_module!r} did not register it). "
            "Parallel grids need register_recorder() to run at import time "
            "of a module importable from the worker."
        )
    record = _RECORDERS[recorder_name](**params)
    return params, record


@dataclass
class GridRunner:
    """Executes grid specs with a cell cache and optional parallelism.

    ``backend`` selects the cell cache format under ``out_dir``:
    ``"jsonl"`` (default — the original ``<grid>.jsonl`` append log,
    format unchanged) or ``"sqlite"`` (an indexed ``<grid>.sqlite``
    cache; see :mod:`repro.store.cells`).

    ``trial_timeout`` (seconds) and ``retries`` make the runner
    fault-tolerant: cells that hang, raise, or kill their worker are
    retried up to ``retries`` times and then reported as failure rows
    (see :func:`~repro.experiments.pool.failure_record`) instead of
    aborting the whole grid.
    Failed cells stay out of the JSONL store, so re-running the grid
    executes only them. ``last_summary`` holds the
    :func:`~repro.experiments.pool.summarize_outcomes` report of the
    most recent :meth:`run` that executed cells (``None`` when every
    cell was a cache hit).

    ``manifest_path`` makes grid runs **checkpointed**: cells execute in
    chunks, and a :class:`~repro.experiments.campaign.CampaignManifest`
    recording submitted/completed/failed cell keys is atomically
    rewritten at least every ``checkpoint_every`` completions.  A run
    killed mid-grid resumes (same spec, same manifest) by executing
    exactly the missing cells — the JSONL store remains the result
    cache, the manifest adds progress provenance and drain bookkeeping.
    ``shutdown`` (a 0-argument callable, e.g. a
    :class:`~repro.experiments.campaign.GracefulShutdown`) is polled
    between submissions; once truthy the run drains in-flight cells,
    checkpoints, and raises
    :class:`~repro.experiments.campaign.CampaignDrained`.
    """

    out_dir: Optional[str] = None
    processes: int = 1
    trial_timeout: Optional[float] = None
    retries: int = 0
    manifest_path: Optional[str] = None
    checkpoint_every: int = 8
    shutdown: Optional[Any] = None
    backend: str = "jsonl"
    last_summary: Optional[Dict[str, Any]] = field(
        default=None, init=False, repr=False
    )
    _stores: Dict[str, Dict[str, Dict[str, Any]]] = field(
        default_factory=dict
    )
    _logs: Dict[str, Any] = field(default_factory=dict, repr=False)

    def _store_path(self, name: str) -> Optional[str]:
        if self.out_dir is None:
            return None
        os.makedirs(self.out_dir, exist_ok=True)
        suffix = "sqlite" if self.backend == "sqlite" else "jsonl"
        return os.path.join(self.out_dir, f"{name}.{suffix}")

    def _cell_log(self, name: str) -> Optional[Any]:
        if name not in self._logs:
            path = self._store_path(name)
            self._logs[name] = (
                open_cell_log(path, backend=self.backend)
                if path else None
            )
        return self._logs[name]

    def _load(self, name: str) -> Dict[str, Dict[str, Any]]:
        if name in self._stores:
            return self._stores[name]
        log = self._cell_log(name)
        store = log.load() if log is not None else {}
        self._stores[name] = store
        return store

    def _append(self, name: str, params: Dict[str, Any],
                record: Dict[str, Any]) -> None:
        self._stores[name][cell_key(params)] = record
        log = self._cell_log(name)
        if log is not None:
            log.append(params, record)

    def run(self, spec: GridSpec) -> List[Dict[str, Any]]:
        """Execute every missing cell; return all rows (params ∪ record).

        A view of :func:`~repro.experiments.campaign.run_jobs`: jobs are
        the grid's cells keyed by :func:`cell_key`, the cell cache is
        the store (so cached cells run nothing), and the sink appends
        each fresh record to it.  Cells that fail or time out (see class
        docstring) contribute failure rows for this call only.
        """
        from .campaign import run_jobs

        store = self._load(spec.name)
        cells = spec.cells()
        keys = [cell_key(cell) for cell in cells]
        module = _RECORDER_MODULES.get(spec.recorder, "")
        self.last_summary = None
        outcomes = run_jobs(
            _run_cell, [(spec.recorder, module, cell) for cell in cells],
            keys=keys, processes=self.processes,
            trial_timeout=self.trial_timeout, retries=self.retries,
            partial=True,
            manifest=self.manifest_path,
            meta={
                "driver": "grid",
                "grid": spec.name,
                "recorder": spec.recorder,
                "rng": {"seeds": list(spec.seeds)},
            },
            checkpoint_every=self.checkpoint_every, shutdown=self.shutdown,
            store=store,
            sink=lambda _index, value: self._append(spec.name, *value),
        )
        executed = [outcome for outcome in outcomes if outcome.attempts]
        if executed:
            self.last_summary = summarize_outcomes(executed)
        rows = []
        for cell, key, outcome in zip(cells, keys, outcomes):
            row = dict(cell)
            row.update(store[key] if outcome.ok
                       else failure_record(outcome))
            rows.append(row)
        return rows

    def missing(self, spec: GridSpec) -> int:
        store = self._load(spec.name)
        return sum(
            1 for cell in spec.cells() if cell_key(cell) not in store
        )


def aggregate(rows: Iterable[Dict[str, Any]], by: Sequence[str],
              value: str) -> Dict[tuple, float]:
    """Group rows by the ``by`` columns and average ``value``."""
    groups: Dict[tuple, List[float]] = {}
    for row in rows:
        key = tuple(row[column] for column in by)
        if row.get(value) is not None:
            groups.setdefault(key, []).append(float(row[value]))
    return {
        key: sum(values) / len(values) for key, values in groups.items()
    }
