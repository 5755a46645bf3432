"""Experiment grids: cartesian sweeps of :class:`~repro.spec.RunSpec`\\ s.

The benches each drive one artifact; exploratory work wants bigger
sweeps — every algorithm × n × (d, δ) × failure bound × seed — without
re-running cells after a crash or an interrupt.  A grid is nothing but
a list of specs:

* a :class:`GridSpec` names the spec kind and the field lists to cross;
  :meth:`GridSpec.specs` is the list of ``RunSpec``\\ s it stands for;
* :func:`repro.store.execute_batch` runs that list like any other,
  with every campaign option it takes; :func:`open_grid_store` opens
  ``<out_dir>/<name>.jsonl`` (or ``.sqlite``) as its store, so a grid's
  cache *is* a spec store: re-running executes only the missing cells,
  and ``repro store query/verify/merge`` and ``repro fleet run`` work on
  it like on any other;
* :meth:`GridSpec.rows` flattens the cells with their realized metrics,
  ready for :func:`aggregate`::

      records = execute_batch(grid.specs(), store=open_grid_store(
          "results", grid.name), processes=4)
      rows = grid.rows(records)

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

    def rows(self, records: Iterable[Mapping[str, Any]]
             ) -> List[Dict[str, Any]]:
        """One row per cell, in cell order, from the records of
        :meth:`specs`: ``cell ∪ metrics ∪ {"spec_hash"}``.  A cell that
        failed or timed out contributes its failure row (see
        :func:`~repro.experiments.pool.failure_record`), which no store
        holds, so re-running the grid executes only it."""
        return [
            {**cell, **record["metrics"], "spec_hash": record["spec_hash"]}
            for cell, record in zip(self.cells(), records)
        ]


def open_grid_store(out_dir: str, name: str, backend: str = "jsonl") -> Any:
    """The artifact store of grid ``name`` under ``out_dir``:
    ``<name>.jsonl``, or ``<name>.sqlite`` with ``backend="sqlite"``,
    keyed by spec hash like every other store.

    A JSONL *cell log* — the ``{"params", "record"}`` lines grids wrote
    before they became spec stores — is refused without being touched.
    The store would refuse it too, but only as "schema version None".
    """
    from ..store import open_store

    suffix = "sqlite" if backend == "sqlite" else "jsonl"
    path = os.path.join(out_dir, f"{name}.{suffix}")
    if suffix == "jsonl":
        try:
            with open(path, encoding="utf-8") as handle:
                first = json.loads(handle.readline() or "null")
        except (OSError, ValueError):
            first = None  # absent, or corrupt: the store's recovery decides
        if isinstance(first, dict) and "params" in first \
                and "record" in first:
            raise ConfigurationError(
                f"{path!r} is a grid cell log in the pre-RunSpec format "
                f"({{\"params\", \"record\"}} lines), which this build does "
                f"not read: grids now cache into a spec store; move the "
                f"file aside or choose another out_dir and re-run"
            )
    return open_store(path, backend=backend)


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
