"""High-level one-call API for running gossip executions.

This is the entry point a downstream user (and the examples/) should reach
for.  Since the declarative configuration plane landed, :func:`run_gossip`
is a thin shim, like :func:`repro.consensus.run_consensus` (which
``repro.run_consensus`` names): it packs its arguments into a
:class:`~repro.spec.runspec.RunSpec` and hands it to
:func:`repro.spec.builder.execute`, which owns algorithm resolution,
crash-plan defaulting, adversary construction and the run loop.  Results
are bit-identical to the historical implementations (pinned by
``tests/test_seed_regression.py``).
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from .adversary.crash_plans import CrashPlan
from .sim.events import Observer
from .spec.builder import crash_plan_config, default_step_limit, execute
from .spec.results import GossipRun
from .spec.runspec import RunSpec

__all__ = [
    "GossipRun",
    "default_step_limit",
    "run_gossip",
]


def run_gossip(
    algorithm: str = "ears",
    n: int = 64,
    f: int = 0,
    d: int = 1,
    delta: int = 1,
    seed: int = 0,
    crashes: Union[None, int, CrashPlan] = None,
    params: Any = None,
    payloads: Optional[Sequence[Any]] = None,
    max_steps: Optional[int] = None,
    majority: Optional[bool] = None,
    measure_bits: bool = False,
    observers: Sequence[Observer] = (),
    engine: str = "auto",
    topology: Union[None, str, dict] = None,
) -> GossipRun:
    """Run one gossip execution under a uniform oblivious (d, δ)-adversary.

    Args:
        algorithm: one of ``trivial``, ``ears``, ``sears``, ``tears``,
            ``uniform``.
        n: number of processes.
        f: failure tolerance bound (0 ≤ f < n); also bounds the crash plan.
        d: target maximum message delay of the execution.
        delta: target maximum scheduling gap of the execution.
        seed: master seed; the run is a deterministic function of all args.
        crashes: ``None`` (failure-free), an int (that many random victims
            with random early crash times), or an explicit
            :class:`~repro.adversary.crash_plans.CrashPlan`.
        params: algorithm knobs — a mapping (``{"eps": 0.25}``) or a
            parameter object (:class:`EarsParams`, :class:`SearsParams`,
            :class:`TearsParams`); both become the spec's ``params``.
        payloads: optional per-process rumor contents.
        max_steps: step ceiling; default derived from (n, f, d, delta).
        majority: override the completion notion; default is majority
            gossip for ``tears`` and full gossip otherwise.
        observers: :class:`~repro.sim.events.Observer` instances to
            subscribe on the simulation (tracers, profilers, samplers).
        engine: execution strategy — ``auto`` (event-driven time-leap
            fast path with stepwise fallback, the default), ``stepwise``
            (the reference loop) or ``leap``; all bit-identical.
        topology: communication graph — ``None``/``"complete"`` (the
            paper's model, bit-identical to the pre-topology runs), a
            registered family name (``"ring"``, ``"gnp"``,
            ``"random-regular"``, ``"small-world"``) or ``{"name": ...,
            **knobs}``. The graph is a pure function of
            ``(topology, seed, n)``.

    Returns:
        A :class:`GossipRun` with completion status, the time and message
        complexity measures, and the realized per-execution d and δ.
    """
    # Serializable arguments go into the spec (so this call has the same
    # provenance as a declarative run); live objects ride as overrides.
    spec = RunSpec(
        kind="gossip",
        algorithm=algorithm,
        n=n,
        f=f,
        d=d,
        delta=delta,
        seed=seed,
        params=params,
        crashes=(
            crash_plan_config(crashes) if isinstance(crashes, CrashPlan)
            else crashes
        ),
        majority=majority,
        measure_bits=measure_bits,
        max_steps=max_steps,
        engine=engine,
        topology=topology,
    )
    return execute(spec, observers=observers, payloads=payloads)

