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
* :func:`topology_scenario_matrix` crosses topologies with adversarial
  scenarios — crash waves, GST-style pre/post-synchrony — and reports
  per-cell completion rates, making topology fragility under failures
  (a crashed ring node halves the live cut) measurable;
* predicted exponents live in :data:`PREDICTED_EXPONENTS` so tables can
  show measured-vs-predicted side by side.

Fits go through :func:`~repro.analysis.fitting.safe_fit_power_law`:
degenerate sweeps (single n, nothing completed) degrade to rendered
"fit skipped" rows instead of crashing the report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Union

from ..analysis.fitting import PowerLawFit, SkippedFit, safe_fit_power_law
from ..analysis.stats import summarize_completed
from ..analysis.tables import format_fit, render_table
from ..sim.topology import topology_name
from ..spec.runspec import RunSpec
from .sweeps import SweepPoint, geometric_ns, sweep_gossip

__all__ = [
    "PREDICTED_EXPONENTS",
    "TopologyCurve",
    "format_topology_curves",
    "format_topology_matrix",
    "sweep_topology_gossip",
    "topology_scenario_matrix",
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

    @property
    def exponent_error(self) -> float:
        return abs(self.deloged_fit.exponent - self.predicted_exponent)


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

    Runs a failure-free n-sweep per topology family (crashes interact
    with connectivity; :func:`topology_scenario_matrix` owns that axis)
    and fits mean completion time against n, raw and with the family's
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


def format_topology_curves(curves: Sequence[TopologyCurve]) -> str:
    """Measured-vs-predicted exponent table for an n-sweep per family."""
    return render_table(
        ["topology", "algorithm", "fit (raw)", "fit (de-logged)",
         "predicted exp", "|error|", "completion"],
        [
            [c.topology, c.algorithm, format_fit(c.raw_fit),
             format_fit(c.deloged_fit), c.predicted_exponent,
             c.exponent_error,
             min(c.completion_rates) if c.completion_rates else 0.0]
            for c in curves
        ],
        title="Spread-time scaling by topology (measured vs. predicted)",
    )


#: The default scenario axis for the matrix: the calm baseline, the
#: simultaneous crash wave, and a GST-style adversary (chaotic until
#: t = gst, then (d, δ)-bounded).  GST is an adversary config rather
#: than a named scenario because its knob lives on the adversary.
_DEFAULT_SCENARIOS: Sequence[Mapping[str, Any]] = (
    {"label": "calm", "scenario": "calm"},
    {"label": "crash-wave", "scenario": "failure-wave"},
    {"label": "gst", "adversary": {"name": "gst", "gst": 12}, "d": 2,
     "delta": 2},
)


def topology_scenario_matrix(
    algorithm: str = "ears",
    n: int = 32,
    f: Optional[int] = None,
    topologies: Sequence[TopologyConfig] = ("complete", "gnp", "ring"),
    scenarios: Optional[Sequence[Mapping[str, Any]]] = None,
    seeds: Iterable[int] = range(3),
    max_steps: Optional[int] = None,
) -> List[Dict[str, Any]]:
    """Cross topologies with adversarial scenarios at fixed n.

    Each cell runs ``len(seeds)`` executions of ``algorithm`` under one
    (topology, scenario) pair and reports the completion rate, the mean
    completion time and the mean message count of the completed runs.
    Scenario entries are dicts with a ``label`` plus RunSpec overrides
    (``scenario`` for a named workload, ``adversary`` for an explicit
    family such as GST, optional ``d``/``delta``).

    Incompleteness is data here, not an error: a crash wave can cut a
    sparse topology's live subgraph, and the matrix is how that
    fragility is measured.
    """
    from ..store import execute_batch  # lazy, as in sweep_gossip

    if scenarios is None:
        scenarios = _DEFAULT_SCENARIOS
    if f is None:
        f = n // 8
    seeds = list(seeds)
    rows: List[Dict[str, Any]] = []
    for config in topologies:
        name = topology_name(config)
        for entry in scenarios:
            entry = dict(entry)
            label = entry.pop("label")
            rate, time, messages = summarize_completed(execute_batch([
                RunSpec(
                    kind="gossip", algorithm=algorithm, n=n, f=f,
                    seed=seed, topology=config, max_steps=max_steps,
                    **entry,
                )
                for seed in seeds
            ]))
            rows.append({
                "topology": name,
                "scenario": label,
                "algorithm": algorithm,
                "n": n,
                "f": f,
                "seeds": len(seeds),
                "completion_rate": rate,
                "mean_time": time.mean if rate else None,
                "mean_messages": messages.mean if rate else None,
            })
    return rows


def format_topology_matrix(rows: Sequence[Mapping[str, Any]]) -> str:
    return render_table(
        ["topology", "scenario", "completion", "mean time",
         "mean messages"],
        [
            [row["topology"], row["scenario"], row["completion_rate"],
             row["mean_time"] if row["mean_time"] is not None else "-",
             (row["mean_messages"]
              if row["mean_messages"] is not None else "-")]
            for row in rows
        ],
        title="Topology × scenario completion matrix",
    )
