"""Central name registries for the declarative configuration plane.

Every ``run_*`` entry point used to resolve names from its own dict:
``repro.api`` kept ``GOSSIP_ALGORITHMS``, ``repro.consensus.runner`` kept
``TRANSPORTS``, ``repro.workloads.scenarios`` kept ``SCENARIOS``.  This
module is now the single home for all of them, plus the named adversaries
and crash-plan factories a :class:`~repro.spec.runspec.RunSpec` may refer
to.  The legacy modules re-export these registries, so existing imports
keep working while every lookup — including did-you-mean diagnostics —
goes through one implementation.

A :class:`Registry` is a read-mostly :class:`~collections.abc.Mapping`;
missing names raise :class:`UnknownNameError`, which subclasses both
:class:`~repro.sim.errors.ConfigurationError` (the substrate's
misconfiguration type) and :class:`KeyError` (the registries replace plain
dicts, and historical callers catch ``KeyError``).
"""

from __future__ import annotations

import difflib
from collections.abc import Mapping
from typing import Any, Dict, Iterator, List, Optional

from ..adversary.crash_plans import (
    no_crashes,
    random_crashes,
    staggered_halving,
    wave_crashes,
)
from ..adversary.byzantine import BEHAVIORS as BYZANTINE_BEHAVIORS
from ..adversary.byzantine import ByzantineAdversary
from ..adversary.gst import GstAdversary
from ..adversary.oblivious import ObliviousAdversary
from ..core.adaptive_fanout import AdaptiveFanoutGossip
from ..core.ears import Ears
from ..core.params import EarsParams, SearsParams, TearsParams
from ..core.ps_push_pull import PanagiotouSpeidelPushPull
from ..core.push_pull import PushPullGossip
from ..core.sears import Sears
from ..core.sparse import SparseGossip
from ..core.tears import Tears
from ..core.trivial import TrivialGossip
from ..core.uniform import UniformEpidemicGossip
from ..sim.errors import ConfigurationError

__all__ = [
    "ADVERSARIES",
    "CRASH_PLANS",
    "GATHERING_ONLY_ALGORITHMS",
    "GOSSIP_ALGORITHMS",
    "MAJORITY_ALGORITHMS",
    "PARAMS_CLASSES",
    "Registry",
    "SCENARIOS",
    "TOPOLOGIES",
    "TRANSPORTS",
    "UnknownNameError",
    "ensure_scenarios",
]


class UnknownNameError(ConfigurationError, KeyError):
    """A name was looked up in a registry that does not hold it."""

    def __init__(self, message: str) -> None:
        super().__init__(message)
        self.message = message

    def __str__(self) -> str:  # KeyError would repr()-quote the message
        return self.message


class Registry(Mapping):
    """A named ``name -> entry`` mapping with did-you-mean diagnostics."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._entries: Dict[str, Any] = {}

    def register(self, name: str, entry: Any, *,
                 overwrite: bool = False) -> Any:
        """Add ``entry`` under ``name``; re-registering the same entry is
        a no-op, a *different* entry requires ``overwrite=True``."""
        if not overwrite and name in self._entries:
            existing = self._entries[name]
            if existing is not entry and existing != entry:
                raise ConfigurationError(
                    f"{self.kind} {name!r} is already registered; "
                    f"pass overwrite=True to replace it"
                )
        self._entries[name] = entry
        return entry

    def __getitem__(self, name: str) -> Any:
        try:
            return self._entries[name]
        except KeyError:
            raise UnknownNameError(self.describe_miss(name)) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def names(self) -> List[str]:
        return sorted(self._entries)

    def suggest(self, name: str) -> Optional[str]:
        """Closest registered name, if any is plausibly what was meant."""
        close = difflib.get_close_matches(str(name), list(self._entries), n=1)
        return close[0] if close else None

    def describe_miss(self, name: str) -> str:
        hint = (
            f"unknown {self.kind} {name!r}; choose from {self.names()}"
        )
        suggestion = self.suggest(name)
        if suggestion is not None:
            hint += f" (did you mean {suggestion!r}?)"
        return hint


# -- gossip algorithms (formerly repro.api.GOSSIP_ALGORITHMS) -------------- #

GOSSIP_ALGORITHMS = Registry("gossip algorithm")
for _name, _cls in (
    ("trivial", TrivialGossip),
    ("ears", Ears),
    ("sears", Sears),
    ("tears", Tears),
    ("uniform", UniformEpidemicGossip),
    ("adaptive-fanout", AdaptiveFanoutGossip),
    ("sparse", SparseGossip),
    ("push-pull", PushPullGossip),
    ("ps-push-pull", PanagiotouSpeidelPushPull),
):
    GOSSIP_ALGORITHMS.register(_name, _cls)

#: Algorithms that solve the weaker *majority gossip* problem (Section 5).
MAJORITY_ALGORITHMS = frozenset({"tears"})

#: Algorithms with no stopping rule: they never quiesce, so full
#: completion (gathered ∧ quiescent ∧ empty network) is unsatisfiable and
#: the builder pairs them with the gathering-only monitor instead. The
#: ``uniform`` baseline keeps its historical caveat — a
#: ``stop_after_steps`` knob makes it quiescent, in which case the
#: standard monitor applies.
GATHERING_ONLY_ALGORITHMS = frozenset({"uniform", "ps-push-pull"})

#: Algorithms whose knobs are the fields of a parameter dataclass: a
#: spec's ``params`` mapping names those fields. Every other algorithm's
#: knobs are its constructor's own keywords.
PARAMS_CLASSES = {Ears: EarsParams, Sears: SearsParams, Tears: TearsParams}


# -- consensus get-core transports (formerly consensus.runner.TRANSPORTS) -- #

TRANSPORTS = Registry("consensus transport")
for _name, _cls in (
    ("all-to-all", TrivialGossip),  # the original Canetti–Rabin O(n²) row
    ("ears", Ears),
    ("sears", Sears),
    ("tears", Tears),
):
    TRANSPORTS.register(_name, _cls)

#: Consensus algorithm name that is a protocol of its own, not a get-core
#: transport; ``RunSpec(kind="consensus", algorithm=BEN_OR)`` selects it.
BEN_OR = "ben-or"


# -- named adversaries ----------------------------------------------------- #
#
# Each factory realizes one adversary family from a spec's (d, δ, seed)
# coordinates plus an already-resolved crash plan and the family's own
# knobs (the extra keys of the spec's ``adversary`` mapping).

def _uniform_adversary(d, delta, seed, crashes):
    return ObliviousAdversary.uniform(d, delta, seed=seed, crashes=crashes)


def _synchronous_adversary(d, delta, seed, crashes):
    return ObliviousAdversary.synchronous_like(crashes)


def _gst_adversary(d, delta, seed, crashes, *, gst, pre_gst_delta=None):
    return GstAdversary(
        gst=gst, d=d, delta=delta, pre_gst_delta=pre_gst_delta,
        seed=seed, crashes=crashes,
    )


def _byzantine_adversary(d, delta, seed, crashes, *, b=1,
                         behaviors=BYZANTINE_BEHAVIORS,
                         silence_mode="total"):
    return ByzantineAdversary.uniform(
        d, delta, b=b, behaviors=tuple(behaviors), seed=seed,
        crashes=crashes, silence_mode=silence_mode,
    )


def _lower_bound_adversary(make_algorithm, n, f, seed, *, samples=6,
                           phase1_cap=4000, promiscuity_factor=32.0,
                           slow_quiesce_threshold=None):
    """The Theorem 1 construction (Figure 1): a whole adaptive execution,
    returned as the ``LowerBoundExperiment`` to run; imported here so no
    other cell loads it."""
    from ..adversary.lower_bound import LowerBoundExperiment

    return LowerBoundExperiment(
        make_algorithm, n, f, seed=seed, samples=samples,
        phase1_cap=phase1_cap, promiscuity_factor=promiscuity_factor,
        slow_quiesce_threshold=slow_quiesce_threshold,
    )


#: The adversary whose specs ``execute`` runs as a Theorem 1 execution.
LOWER_BOUND = "lower-bound"

ADVERSARIES = Registry("adversary")
ADVERSARIES.register("uniform", _uniform_adversary)
ADVERSARIES.register("synchronous", _synchronous_adversary)
ADVERSARIES.register("gst", _gst_adversary)
ADVERSARIES.register("byzantine", _byzantine_adversary)
ADVERSARIES.register(LOWER_BOUND, _lower_bound_adversary)


# -- named crash plans ----------------------------------------------------- #
#
# Factories take the spec coordinates (n, f, d, delta, seed) plus knobs
# from the spec's ``crashes`` mapping; defaults mirror the historical
# behavior of the drivers that used each plan shape.

def _none_plan(n, f, d, delta, seed):
    return no_crashes()


def _random_early_plan(n, f, d, delta, seed, *, count=None, horizon=None):
    if count is None:
        count = f
    if horizon is None:
        horizon = max(1, 8 * (d + delta))
    return random_crashes(n, count, horizon, seed=seed)


def _wave_plan(n, f, d, delta, seed, *, count=None, at=4):
    victims = random_crashes(
        n, count if count is not None else f, 1, seed=seed
    ).victims
    return wave_crashes(victims, at=at)


def _staggered_halving_plan(n, f, d, delta, seed, *, epoch_length=24):
    return staggered_halving(n, f, epoch_length=epoch_length, seed=seed)


CRASH_PLANS = Registry("crash plan")
CRASH_PLANS.register("none", _none_plan)
CRASH_PLANS.register("random-early", _random_early_plan)
CRASH_PLANS.register("wave", _wave_plan)
CRASH_PLANS.register("staggered-halving", _staggered_halving_plan)


# -- communication topologies ---------------------------------------------- #
#
# The builder functions themselves live in :mod:`repro.sim.topology`
# (``repro.sim`` must not import ``repro.spec``); this registry gives the
# spec plane the same lookup-with-diagnostics surface as every other name
# a RunSpec may mention.

from ..sim.topology import TOPOLOGY_BUILDERS  # noqa: E402

TOPOLOGIES = Registry("topology")
for _name, _builder in sorted(TOPOLOGY_BUILDERS.items()):
    TOPOLOGIES.register(_name, _builder)


# -- named scenarios ------------------------------------------------------- #

#: Populated by :mod:`repro.workloads.scenarios` at import time; use
#: :func:`ensure_scenarios` when resolving scenario names so the catalogue
#: is registered regardless of import order.
SCENARIOS = Registry("scenario")


def ensure_scenarios() -> Registry:
    """Return :data:`SCENARIOS` with the built-in catalogue registered."""
    from ..workloads import scenarios  # noqa: F401  (import registers)

    return SCENARIOS
