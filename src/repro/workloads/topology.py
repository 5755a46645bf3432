"""Topology sweeps: spread-time scaling across communication graphs.

The paper's model is the complete graph; the related rumor-spreading
literature asks how much of its speed survives on sparse graphs.
Panagiotou & Speidel (arXiv:1608.01766) prove asynchronous push–pull
spreads in Θ(log n) on supercritical G(n, p) — matching the complete
graph — while the ring is Θ(n) for any gossip protocol (information
moves a constant distance per contact). This module measures those
shapes with the same fitting machinery the message-complexity scaling
experiments use:

* :func:`sweep_topology_gossip` runs one algorithm across an n-sweep per
  topology family and fits completion time ≈ c · n^e (optionally
  dividing out the predicted log factor), producing one
  :class:`TopologyCurve` per family;
* predicted exponents live in :data:`PREDICTED_EXPONENTS` so callers can
  set measured against predicted.

Fits go through :func:`~repro.analysis.fitting.safe_fit_power_law`:
degenerate sweeps (single n, nothing completed) degrade to a
:class:`~repro.analysis.fitting.SkippedFit` instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from ..analysis.fitting import PowerLawFit, SkippedFit, safe_fit_power_law
from ..sim.topology import topology_name
from .sweeps import SweepPoint, geometric_ns, sweep_gossip

__all__ = [
    "PREDICTED_EXPONENTS",
    "TopologyCurve",
    "sweep_topology_gossip",
]

#: Predicted completion-time scaling in n at fixed (d, δ): the pure power
#: part plus the log power to divide out before fitting it.  Complete,
#: supercritical G(n,p) and random-regular expanders spread in Θ(log n)
#: (exponent 0 after removing one log); the ring's diameter forces Θ(n);
#: Watts–Strogatz shortcuts bring the ring back to polylog.
PREDICTED_EXPONENTS: Dict[str, Dict[str, float]] = {
    "complete": {"exponent": 0.0, "log_power": 1.0},
    "gnp": {"exponent": 0.0, "log_power": 1.0},
    "random-regular": {"exponent": 0.0, "log_power": 1.0},
    "small-world": {"exponent": 0.0, "log_power": 2.0},
    "ring": {"exponent": 1.0, "log_power": 0.0},
}

TopologyConfig = Union[None, str, Mapping[str, Any]]


@dataclass
class TopologyCurve:
    """One topology family's measured n-sweep plus its fitted shape."""

    topology: str
    config: TopologyConfig
    algorithm: str
    ns: List[int]
    times: List[float]
    completion_rates: List[float]
    raw_fit: Union[PowerLawFit, SkippedFit]
    deloged_fit: Union[PowerLawFit, SkippedFit]
    predicted_exponent: float
    points: List[SweepPoint] = field(default_factory=list)


def sweep_topology_gossip(
    algorithm: str = "ps-push-pull",
    topologies: Sequence[TopologyConfig] = ("complete", "gnp", "ring"),
    ns: Optional[Sequence[int]] = None,
    seeds: Iterable[int] = range(3),
    d: int = 1,
    delta: int = 1,
    max_steps: Optional[int] = None,
    engine: str = "auto",
) -> List[TopologyCurve]:
    """Fit per-topology spread-time exponents for one algorithm.

    Runs a failure-free n-sweep per topology family and fits mean completion time against n, raw and with the family's
    predicted log factor divided out.
    """
    if ns is None:
        ns = geometric_ns(16, 128)
    seeds = list(seeds)
    curves = []
    for config in topologies:
        name = topology_name(config)
        points = sweep_gossip(
            algorithm, ns, lambda n: 0, d=d, delta=delta, seeds=seeds,
            max_steps=max_steps, engine=engine, topology=config,
        )
        times = [p.time.mean for p in points]
        shape = PREDICTED_EXPONENTS.get(
            name, {"exponent": 0.0, "log_power": 1.0}
        )
        curves.append(
            TopologyCurve(
                topology=name,
                config=config,
                algorithm=algorithm,
                ns=list(ns),
                times=times,
                completion_rates=[p.completion_rate for p in points],
                raw_fit=safe_fit_power_law(list(ns), times),
                deloged_fit=safe_fit_power_law(
                    list(ns), times, log_power=shape["log_power"]
                ),
                predicted_exponent=shape["exponent"],
                points=points,
            )
        )
    return curves
