"""The declarative configuration plane: specs, registries, builder.

* :class:`~repro.spec.runspec.RunSpec` — a frozen, serializable,
  canonically-hashable description of one execution;
* :mod:`repro.spec.registry` — the name tables (gossip algorithms,
  consensus transports, scenarios, adversaries, crash plans) that every
  entry point resolves through;
* :mod:`repro.spec.builder` — ``build(spec) -> Simulation`` and
  ``execute(spec) -> run``, the single implementation behind
  ``run_gossip``, ``run_consensus``, grids and the CLI.

The provenance-stamped artifact store over executed specs lives in the
sibling module :mod:`repro.store`.
"""

from .registry import (
    ADVERSARIES,
    BEN_OR,
    CRASH_PLANS,
    GATHERING_ONLY_ALGORITHMS,
    GOSSIP_ALGORITHMS,
    MAJORITY_ALGORITHMS,
    SCENARIOS,
    TRANSPORTS,
)
from .runspec import RunSpec, SPEC_SCHEMA_VERSION
from .results import GossipRun
from .builder import (
    BuiltRun,
    build,
    crash_plan_config,
    default_step_limit,
    execute,
    resolve_crash_plan,
)

__all__ = [
    "ADVERSARIES",
    "BEN_OR",
    "BuiltRun",
    "CRASH_PLANS",
    "GATHERING_ONLY_ALGORITHMS",
    "GOSSIP_ALGORITHMS",
    "GossipRun",
    "MAJORITY_ALGORITHMS",
    "RunSpec",
    "SCENARIOS",
    "SPEC_SCHEMA_VERSION",
    "TRANSPORTS",
    "build",
    "crash_plan_config",
    "default_step_limit",
    "execute",
    "resolve_crash_plan",
]
