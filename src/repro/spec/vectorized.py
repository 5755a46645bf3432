"""Spec-level entry points for the vectorized batched-trial engine.

:func:`execute_batch_spec` runs one eligible spec through
:class:`repro.sim.batch.engine.BatchSimulation` (a batch of one);
:func:`run_batch_specs` runs a whole *group* of specs that share every
coordinate except the seed — the unit the store layer
(:func:`repro.store.batch.execute_batch`) partitions
campaigns into. Both return the same :class:`~repro.spec.results.
GossipRun` shape the scalar builder produces, with ``sim=None`` (there
is no per-trial scalar simulation object to hand back).

Eligibility is decided by :func:`batch_ineligibility` — the attribute
gate of :mod:`repro.sim.batch`, then the engine import itself; callers
fall back to :func:`repro.spec.builder.execute` for anything it refuses,
which keeps adaptive adversaries, consensus, Theorem 1 and instrumented
runs byte-identical to today. numpy is loaded by that import and by
nothing before it: a process whose specs all fall back never pays for it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from ..core.params import DEFAULT_EARS, DEFAULT_SEARS
from ..sim.engine import RunResult
from ..sim.batch import batch_ineligibility as _gate_ineligibility
from ..sim.errors import ConfigurationError
from .builder import _apply_scenario, default_step_limit, resolve_crash_plan
from .registry import MAJORITY_ALGORITHMS
from .results import GossipRun
from .runspec import RunSpec

__all__ = [
    "batch_eligible",
    "batch_ineligibility",
    "batch_group_key",
    "execute_batch_spec",
    "run_batch_specs",
]


def _engine():
    """:mod:`repro.sim.batch.engine` — the one import that loads numpy."""
    from ..sim.batch import engine

    return engine


def batch_ineligibility(spec) -> Optional[str]:
    """``None`` when the batch engine can run ``spec``, else the reason
    for the scalar fallback: the attribute gate's
    (:func:`repro.sim.batch.batch_ineligibility`, which only asks whether
    a numpy is *installed*), or — for a spec that passes it — that the
    installed numpy does not import."""
    reason = _gate_ineligibility(spec)
    if reason is None:
        try:
            _engine()
        except ImportError as exc:
            reason = f"numpy is not available ({exc})"
    return reason


def batch_eligible(spec) -> bool:
    return batch_ineligibility(spec) is None


def batch_group_key(spec: RunSpec) -> str:
    """Canonical identity of a spec cell with the seed factored out.

    Specs sharing a group key differ only in ``seed`` (and possibly
    ``engine``, which never enters the canonical form) and can ride the
    same :class:`BatchSimulation`.
    """
    return spec.replace(seed=0).canonical_json()


def _epidemic_knobs(spec: RunSpec, n: int, f: int) -> Tuple[int, int]:
    """(fanout, shutdown_sends) exactly as the Ears/Sears constructors
    derive them (spec.params is None for eligible specs)."""
    if spec.algorithm == "ears":
        return 1, DEFAULT_EARS.shutdown_steps(n, f)
    if spec.algorithm == "sears":
        return DEFAULT_SEARS.fanout(n), DEFAULT_SEARS.shutdown_steps
    raise ConfigurationError(
        f"no vectorized implementation for {spec.algorithm!r}"
    )


def run_batch_specs(specs: Sequence[RunSpec]) -> List[GossipRun]:
    """Run specs that share every coordinate but the seed as one batch.

    Each trial's stream depends only on its own seed (batch-composition
    invariance), so splitting or merging groups never changes results.
    """
    if not specs:
        return []
    head = specs[0]
    key = batch_group_key(head)
    for spec in specs[1:]:
        if batch_group_key(spec) != key:
            raise ConfigurationError(
                "run_batch_specs requires specs differing only in seed"
            )
    reason = batch_ineligibility(head)
    if reason is not None:
        raise ConfigurationError(f"spec is not batch-eligible: {reason}")

    n = head.n
    f = head.resolved_f
    fanout, shutdown_sends = _epidemic_knobs(head, n, f)
    majority = head.majority
    if majority is None:
        majority = head.algorithm in MAJORITY_ALGORITHMS

    crash_events = []
    d = delta = None
    for spec in specs:
        # Scenario crash workloads and int crash counts are seeded per
        # trial, exactly like the scalar builder.
        sd, sdelta, crashes = _apply_scenario(spec)
        plan = resolve_crash_plan(crashes, n, f, sd, sdelta, spec.seed)
        crash_events.append(
            [(when, sorted(pids)) for when, pids in plan.events()]
        )
        d, delta = sd, sdelta

    max_steps = (
        head.max_steps if head.max_steps is not None
        else default_step_limit(n, f, d, delta)
    )
    sim = _engine().BatchSimulation(
        n,
        f,
        [spec.seed for spec in specs],
        fanout=fanout,
        shutdown_sends=shutdown_sends,
        d=d,
        delta=delta,
        crash_events=crash_events,
        majority=majority,
    )
    trials = sim.run(max_steps)

    runs = []
    for spec, trial in zip(specs, trials):
        result = RunResult(
            completed=trial.completed,
            reason=trial.reason,
            completion_time=trial.completion_time,
            steps=trial.steps,
            messages=trial.messages,
            metrics=trial.metrics,
        )
        gathering_time = trial.gathering_time
        if gathering_time is None and trial.completed:
            gathering_time = trial.completion_time
        runs.append(
            GossipRun(
                algorithm=spec.algorithm,
                n=n,
                f=f,
                completed=trial.completed,
                reason=trial.reason,
                completion_time=trial.completion_time,
                gathering_time=gathering_time,
                messages=trial.messages,
                messages_by_kind=dict(trial.metrics["messages_by_kind"]),
                bits=trial.metrics["bits_sent"],
                realized_d=trial.metrics["realized_d"],
                realized_delta=trial.metrics["realized_delta"],
                crashes=trial.metrics["crashes"],
                result=result,
                sim=None,
            )
        )
    return runs


def execute_batch_spec(spec: RunSpec) -> Optional[GossipRun]:
    """Run one spec on the batch engine, or ``None`` when ineligible
    (caller falls back to the scalar builder)."""
    if batch_ineligibility(spec) is not None:
        return None
    return run_batch_specs([spec])[0]
