"""Workload generation: sweep drivers, topology sweeps.

Named scenarios are spec data: :data:`repro.spec.registry.SCENARIOS`.
"""

from .sweeps import (
    SweepPoint,
    geometric_ns,
    near_half,
    quarter,
    sweep_gossip,
    three_quarters,
)
from .topology import (
    PREDICTED_EXPONENTS,
    TopologyCurve,
    format_topology_curves,
    format_topology_matrix,
    sweep_topology_gossip,
    topology_scenario_matrix,
)

__all__ = [
    "PREDICTED_EXPONENTS",
    "SweepPoint",
    "TopologyCurve",
    "format_topology_curves",
    "format_topology_matrix",
    "geometric_ns",
    "near_half",
    "quarter",
    "sweep_gossip",
    "sweep_topology_gossip",
    "three_quarters",
    "topology_scenario_matrix",
]
