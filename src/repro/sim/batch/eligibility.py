"""Which RunSpec cells the batch engine can take, and why not.

The batch engine specializes the exact coordinates big campaigns run:
Figure 2 epidemic gossip (EARS/SEARS) under the oblivious ``uniform``
adversary. Everything else — adaptive
adversaries (Theorem 1), consensus, invariant checking, bit metering,
observers, custom payloads — transparently falls back to the scalar
engines with results identical to today.

This module deliberately duck-types the spec (reads attributes only) so
``repro.sim`` never imports ``repro.spec``.
"""

from __future__ import annotations

from importlib.util import find_spec
from typing import Optional

# Ask the import system whether a numpy is installed without importing
# it (0.1 s and 12 MiB that the scalar engines never use): the modules
# that compute with arrays import it themselves. A hidden module
# (``sys.modules["numpy"] = None``) reads as absent, and so does a
# stand-in without a ``__spec__``, which find_spec refuses by ValueError.
try:
    HAVE_NUMPY = find_spec("numpy") is not None
except (ImportError, ValueError):
    HAVE_NUMPY = False

#: Epidemic algorithms the vectorized Figure 2 loop implements.
BATCH_ALGORITHMS = frozenset({"ears", "sears"})

#: Refuse cells whose I-payload arrays would not fit comfortably; the
#: scalar fallback handles them (cap keeps one 64-trial batch of the
#: largest eligible cell in the low hundreds of MB).
MAX_BATCH_N = 512

#: Adversary resolvable to RoundRobinWindows/EveryStep + hash delays.
_UNIFORM = "uniform"

#: Packed-state budget one vectorized group chunk may allocate.
BATCH_MEMORY_BUDGET = 512 * 1024 * 1024


def max_batch_trials(n: int, budget: int = BATCH_MEMORY_BUDGET) -> int:
    """Largest trial count whose packed I-state (live + pend + in-flight
    snapshots, see :func:`repro.sim.batch.state.estimate_bytes`) fits in
    ``budget``. Pure arithmetic so the store layer can cap chunk sizes
    without importing numpy."""
    words = (n + 63) // 64
    per_trial = 3 * n * n * words * 8
    return max(1, budget // max(1, per_trial))


def batch_ineligibility(spec) -> Optional[str]:
    """Return ``None`` when the batch engine can run ``spec``, else a
    human-readable reason for the scalar fallback."""
    if not HAVE_NUMPY:
        return "numpy is not available"
    if getattr(spec, "kind", None) != "gossip":
        return f"kind={getattr(spec, 'kind', None)!r} is per-trial only"
    if spec.algorithm not in BATCH_ALGORITHMS:
        return (
            f"algorithm {spec.algorithm!r} has no vectorized "
            "implementation"
        )
    adversary = spec.adversary
    if adversary is not None:
        if not isinstance(adversary, dict) or adversary.get(
            "name"
        ) != _UNIFORM or len(adversary) != 1:
            return f"adversary {adversary!r} is not the oblivious uniform"
    if spec.n > MAX_BATCH_N:
        return f"n={spec.n} exceeds the batch state cap ({MAX_BATCH_N})"
    if spec.check_invariants:
        return "invariant observers are per-trial only"
    if spec.measure_bits:
        return "bit metering is per-trial only"
    if spec.params is not None:
        # Ears/Sears constructor params are objects, not JSON mappings;
        # let the scalar path resolve (or reject) them unchanged.
        return "algorithm params override is per-trial only"
    if getattr(spec, "topology", None) is not None:
        # The vectorized loop samples targets uniformly over [n]; a
        # restricted neighbor view would need per-process target tables.
        return "non-complete topologies are per-trial only"
    return None


def batch_eligible(spec) -> bool:
    return batch_ineligibility(spec) is None
