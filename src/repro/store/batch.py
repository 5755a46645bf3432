"""Cached and batched spec execution against an artifact store.

The execution layer of the store package: every entry point takes any
:class:`~repro.store.base.Store` backend and treats a stored spec hash
as a cache hit that runs no simulation.  :func:`execute_batch` is a view
of :func:`repro.experiments.campaign.run_jobs` (jobs are serialized
specs, keys are spec hashes, the sink is ``store.put``); tests
monkeypatch ``repro.store.batch.execute`` /
``repro.store.batch._spec_job`` to assert cache-hit behavior.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from ..spec.builder import execute
from ..spec.runspec import RunSpec
from .base import Store, make_record, metrics_of

__all__ = [
    "execute_batch",
    "execute_cached",
]

#: Default number of seeds one vectorized engine tick advances together.
DEFAULT_BATCH_SIZE = 64


def execute_cached(
    spec: RunSpec, store: Store
) -> Tuple[Dict[str, Any], bool]:
    """Run ``spec`` unless ``store`` already holds its hash.

    Returns ``(record, cache_hit)``; on a cache hit no simulation runs.
    Overrides are deliberately not accepted here: cached records must be
    pure functions of the spec, or the hash would lie about provenance.
    """
    record = store.get(spec.spec_hash)
    if record is not None:
        return record, True
    outcome = execute(spec)
    return store.put(spec, metrics_of(outcome)), False


def _spec_job(spec_dict: Dict[str, Any]) -> Dict[str, Any]:
    """Execute one serialized spec in a (possibly worker) process."""
    return metrics_of(execute(RunSpec.from_dict(spec_dict)))


def _unit_job(job: Any) -> Any:
    """One pool job: a serialized spec, or a list of them — a same-cell
    chunk the vectorized engine advances together, whose value is the
    list of their metrics."""
    if isinstance(job, list):
        from ..spec.vectorized import run_batch_specs

        specs = [RunSpec.from_dict(d) for d in job]
        return [metrics_of(run) for run in run_batch_specs(specs)]
    return _spec_job(job)


def _vector_chunks(specs: Dict[str, RunSpec], store: Optional[Store],
                   batch_size: int) -> List[List[str]]:
    """Group the not-yet-stored specs asking for ``engine="batch"`` by
    their seed-free canonical identity
    (:func:`~repro.spec.vectorized.batch_group_key`) and cut each group
    into chunks of ``batch_size`` seeds; chunks list spec hashes.
    Anything else — other engines, ineligible cells (adaptive
    adversaries, consensus, instrumented runs, ...) — is left to the
    per-trial path."""
    asking = [key for key, spec in specs.items() if spec.engine == "batch"]
    if not asking:
        return []
    from ..sim.batch import max_batch_trials
    from ..spec.vectorized import batch_eligible, batch_group_key

    groups: Dict[str, List[str]] = {}
    for key in asking:
        if (store is None or key not in store) \
                and batch_eligible(specs[key]):
            groups.setdefault(batch_group_key(specs[key]), []).append(key)
    chunks: List[List[str]] = []
    for group in groups.values():
        # Cap chunks so one group's packed state fits the memory budget
        # (the I-payload arrays grow with n²).
        size = max(1, min(int(batch_size),
                          max_batch_trials(specs[group[0]].n)))
        chunks += [group[i:i + size] for i in range(0, len(group), size)]
    return chunks


def execute_batch(
    specs: Iterable[RunSpec],
    store: Optional[Store] = None,
    processes: int = 1,
    shutdown: Any = None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> List[Dict[str, Any]]:
    """Execute a batch of specs, skipping every already-stored hash.

    Specs travel to workers as their serialized dicts, so parallel
    batches need no pickling support beyond plain data.  Records come
    back in spec order; previously stored specs are cache hits and
    duplicate hashes within the batch execute once.  The store is the
    batch's only progress record: a batch killed mid-run is resumed by
    re-running it against the same store, which re-runs exactly the
    missing specs, seed for seed.

    Specs requesting ``engine="batch"`` are grouped by cell and ride the
    vectorized engine ``batch_size`` seeds per job (ineligible cells
    run per-trial in the same pool) unless the batch is drainable,
    where execution stays per-trial — a drain stops between chunks of
    specs, not inside a group — and ``execute()`` still vectorizes each
    eligible spec as a batch of one.

    The batch is fail-fast: a spec whose execution raises, or whose
    worker dies, aborts it with that error (see
    :func:`~repro.experiments.campaign.run_jobs`); what reached the
    store before stays there.  Retries of failing specs are the
    fleet's (``repro fleet run``).

    ``shutdown`` (a :class:`~repro.experiments.campaign.GracefulShutdown`
    or any 0-argument callable; it needs a ``store``) is polled between
    chunks of specs: when it turns truthy the batch stops submitting,
    drains in-flight trials, syncs the store, and raises
    :class:`~repro.experiments.campaign.CampaignDrained`.
    """
    from ..experiments.campaign import run_jobs

    specs = list(specs)
    hashes = [spec.spec_hash for spec in specs]
    unique: Dict[str, RunSpec] = {}
    for key, spec in zip(hashes, specs):
        unique.setdefault(key, spec)
    chunks = (_vector_chunks(unique, store, batch_size)
              if shutdown is None else [])
    chunked = {key for chunk in chunks for key in chunk}
    singles = [key for key in unique if key not in chunked]
    units = chunks + [[key] for key in singles]

    def values_of(index: int, value: Any) -> List[Any]:
        return value if index < len(chunks) else [value]

    def put(index: int, value: Any) -> None:
        for key, metrics in zip(units[index], values_of(index, value)):
            store.put(unique[key], metrics)

    values = run_jobs(
        _unit_job,
        [[unique[key].to_dict() for key in chunk] for chunk in chunks]
        + [unique[key].to_dict() for key in singles],
        keys=[unit[0] for unit in units],
        processes=processes, shutdown=shutdown, store=store,
        sink=put if store is not None else None,
    )
    if store is not None:
        return [store.get(key) for key in hashes]
    fresh = {
        key: make_record(unique[key], metrics)
        for index, unit in enumerate(units)
        for key, metrics in zip(unit, values_of(index, values[index]))
    }
    return [fresh[key] for key in hashes]
