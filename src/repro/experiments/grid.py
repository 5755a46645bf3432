"""Experiment grids: cartesian sweeps of :class:`~repro.spec.RunSpec`\\ s.

The benches each drive one artifact; exploratory work wants bigger
sweeps — every algorithm × n × (d, δ) × failure bound × seed — without
re-running cells after a crash or an interrupt.  A grid is nothing but
a list of specs:

* a :class:`GridSpec` names the spec kind and the field lists to cross;
  :meth:`GridSpec.specs` is the list of ``RunSpec``\\ s it stands for;
* :class:`GridRunner` hands that list to
  :func:`repro.store.execute_batch` with the artifact store
  ``<out_dir>/<name>.jsonl`` (or ``.sqlite``), so a grid's cache *is* a
  spec store: re-running executes only the missing cells, and ``repro
  store query/verify/merge`` and ``repro fleet run`` work on it like on
  any other;
* rows are the cells flattened with their realized metrics, ready for
  :func:`aggregate`.

An experiment that is not a ``RunSpec`` goes to the job runner of
:mod:`repro.experiments.campaign` directly, as ``execute_batch`` does.
"""

from __future__ import annotations

import itertools
import json
import os
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from ..sim.errors import ConfigurationError
from ..spec.runspec import RunSpec

Axes = Mapping[str, Sequence[Any]]


@dataclass(frozen=True)
class GridSpec:
    """A named sweep: spec kind + field lists to cross + seeds.

    ``grid`` maps :class:`~repro.spec.RunSpec` field names to the values
    to cross.  A sequence of such mappings is the union of their cross
    products — the shape of a grid with coupled axes (``f`` as a
    function of ``n``: one sub-grid per ``n``).
    """

    name: str
    kind: str
    grid: Union[Axes, Sequence[Axes]]
    seeds: Sequence[int] = (0,)

    def cells(self) -> List[Dict[str, Any]]:
        """All field combinations, seed included."""
        grids = ([self.grid] if isinstance(self.grid, MappingABC)
                 else self.grid)
        cells = []
        for grid in grids:
            keys = sorted(grid)
            for combo in itertools.product(*(grid[k] for k in keys)):
                base = dict(zip(keys, combo))
                cells += [{**base, "seed": seed} for seed in self.seeds]
        return cells

    def specs(self) -> List[RunSpec]:
        """One ``RunSpec(kind=self.kind, **cell)`` per cell, in cell
        order; an axis that is not a ``RunSpec`` field is a
        :class:`~repro.sim.errors.ConfigurationError` naming it.  An
        axis ``"engine": ["batch"]`` makes the batch layer advance a
        cell's seeds together; ``engine`` never enters the spec hash,
        so cached cells satisfy any engine choice."""
        return [RunSpec.from_dict({**cell, "kind": self.kind})
                for cell in self.cells()]


def _refuse_cell_log(path: str) -> None:
    """Refuse a JSONL *cell log* — the ``{"params", "record"}`` lines
    grids wrote before they became spec stores — without touching it.
    The store would refuse it too, but only as "schema version None"."""
    try:
        with open(path, encoding="utf-8") as handle:
            first = json.loads(handle.readline() or "null")
    except (OSError, ValueError):
        return  # absent, or corrupt: the store's recovery scan decides
    if isinstance(first, dict) and "params" in first and "record" in first:
        raise ConfigurationError(
            f"{path!r} is a grid cell log in the pre-RunSpec format "
            f"({{\"params\", \"record\"}} lines), which this build does "
            f"not read: grids now cache into a spec store; move the file "
            f"aside or choose another out_dir and re-run"
        )


@dataclass
class GridRunner:
    """Runs grid specs through :func:`~repro.store.execute_batch`.

    ``out_dir`` holds one artifact store per grid name —
    ``<name>.jsonl`` or, with ``backend="sqlite"``, ``<name>.sqlite`` —
    keyed by spec hash like every other store; without it nothing
    outlives a :meth:`run` call.  The remaining fields are
    ``execute_batch``'s, unchanged: ``processes``; ``trial_timeout``
    (seconds) and ``retries`` turn cells that hang, raise or kill their
    worker into failure rows (see
    :func:`~repro.experiments.pool.failure_record`) that are never
    stored, so re-running the grid executes only them;
    ``manifest_path`` checkpoints the run into a
    :class:`~repro.experiments.campaign.CampaignManifest` at least
    every ``checkpoint_every`` completions, and ``shutdown`` (a
    0-argument callable, e.g. a
    :class:`~repro.experiments.campaign.GracefulShutdown`) drains it
    and raises :class:`~repro.experiments.campaign.CampaignDrained`.
    """

    out_dir: Optional[str] = None
    processes: int = 1
    trial_timeout: Optional[float] = None
    retries: int = 0
    manifest_path: Optional[str] = None
    checkpoint_every: int = 8
    shutdown: Optional[Any] = None
    backend: str = "jsonl"

    def _store(self, name: str) -> Optional[Any]:
        if self.out_dir is None:
            return None
        from ..store import open_store

        suffix = "sqlite" if self.backend == "sqlite" else "jsonl"
        path = os.path.join(self.out_dir, f"{name}.{suffix}")
        if suffix == "jsonl":
            _refuse_cell_log(path)
        return open_store(path, backend=self.backend)

    def run(self, spec: GridSpec) -> List[Dict[str, Any]]:
        """Execute every missing cell; return all rows, in cell order.

        A row is ``cell ∪ metrics ∪ {"spec_hash"}``; a cell that failed
        or timed out (see class docstring) contributes its failure row
        for this call only.
        """
        from ..store import execute_batch

        records = execute_batch(
            spec.specs(), store=self._store(spec.name),
            processes=self.processes, trial_timeout=self.trial_timeout,
            retries=self.retries, manifest=self.manifest_path,
            checkpoint_every=self.checkpoint_every, shutdown=self.shutdown,
        )
        return [
            {**cell, **record["metrics"], "spec_hash": record["spec_hash"]}
            for cell, record in zip(spec.cells(), records)
        ]


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
