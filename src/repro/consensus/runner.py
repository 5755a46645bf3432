"""One-call drivers for consensus executions (the Table 2 harness).

``run_consensus`` is a thin shim over the declarative configuration
plane: it packs its arguments into a
:class:`~repro.spec.runspec.RunSpec` and defers to
:func:`repro.spec.builder.execute`, which owns transport resolution,
crash-plan defaulting and the run loop.  The transport table is
:data:`repro.spec.registry.TRANSPORTS`.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from ..adversary.crash_plans import CrashPlan
from .values import ConsensusRun

__all__ = [
    "default_values",
    "run_consensus",
]


def default_values(n: int) -> list:
    """The hard input for binary consensus: a near-even split."""
    return [pid % 2 for pid in range(n)]


def run_consensus(
    gossip: str = "ears",
    n: int = 16,
    f: Optional[int] = None,
    d: int = 1,
    delta: int = 1,
    seed: int = 0,
    values: Optional[Sequence[Any]] = None,
    crashes: Union[None, int, CrashPlan] = None,
    params: Any = None,
    max_steps: Optional[int] = None,
    adversary=None,
    engine: str = "auto",
) -> ConsensusRun:
    """Run one randomized consensus execution and check its properties.

    ``gossip`` is a Table 2 row: ``all-to-all`` (Canetti–Rabin baseline),
    ``ears``, ``sears``, ``tears``, or the historical ``ben-or``. Consensus
    requires f < n/2 (the paper's standing assumption in Section 6).

    ``adversary`` overrides the default uniform oblivious adversary (e.g.
    a :class:`~repro.adversary.gst.GstAdversary` for eventually-synchronous
    executions); ``crashes`` is ignored when an adversary is supplied.
    """
    from ..spec.builder import crash_plan_config, execute
    from ..spec.runspec import RunSpec

    spec = RunSpec(
        kind="consensus",
        algorithm=gossip,
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
        values=tuple(values) if values is not None else None,
        max_steps=max_steps,
        engine=engine,
    )
    return execute(spec, adversary=adversary)
