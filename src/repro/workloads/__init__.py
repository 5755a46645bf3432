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
    sweep_topology_gossip,
)

__all__ = [
    "PREDICTED_EXPONENTS",
    "SweepPoint",
    "TopologyCurve",
    "geometric_ns",
    "near_half",
    "quarter",
    "sweep_gossip",
    "sweep_topology_gossip",
    "three_quarters",
]
