"""The name tables of the declarative configuration plane.

Every name a :class:`~repro.spec.runspec.RunSpec` may mention — gossip
algorithm, consensus transport, adversary, crash plan, scenario —
resolves through one :class:`~repro.sim.errors.Registry` here, built
once from a dict literal and never mutated. (Topology names resolve
through :data:`repro.sim.topology.TOPOLOGY_BUILDERS`, the same kind of
table, because ``repro.sim`` must not import ``repro.spec``.) Nothing
registers at import time and no other module keeps a copy: importers
name this module.

A missing name raises :class:`~repro.sim.errors.UnknownNameError`, both
a :class:`~repro.sim.errors.ConfigurationError` and a :class:`KeyError`,
with the choices and a did-you-mean hint.
"""

from __future__ import annotations

from ..adversary.crash_plans import (
    no_crashes,
    random_crashes,
    staggered_halving,
    wave_crashes,
)
from ..adversary.gst import GstAdversary
from ..adversary.oblivious import ObliviousAdversary
from ..core.adaptive_fanout import AdaptiveFanoutGossip
from ..core.ears import Ears
from ..core.ps_push_pull import PanagiotouSpeidelPushPull
from ..core.push_pull import PushPullGossip
from ..core.sears import Sears
from ..core.sparse import SparseGossip
from ..core.tears import Tears
from ..core.trivial import TrivialGossip
from ..core.uniform import UniformEpidemicGossip
from ..sim.errors import Registry

__all__ = [
    "ADVERSARIES",
    "BEN_OR",
    "CRASH_PLANS",
    "GATHERING_ONLY_ALGORITHMS",
    "GOSSIP_ALGORITHMS",
    "LOWER_BOUND",
    "MAJORITY_ALGORITHMS",
    "SCENARIOS",
    "TRANSPORTS",
]


# -- gossip algorithms ----------------------------------------------------- #
#
# An algorithm whose knobs are the fields of a parameter dataclass names
# it as its ``params_class`` (EARS, SEARS, TEARS); every other
# algorithm's knobs are its constructor's own keywords.

GOSSIP_ALGORITHMS = Registry("gossip algorithm", {
    "trivial": TrivialGossip,
    "ears": Ears,
    "sears": Sears,
    "tears": Tears,
    "uniform": UniformEpidemicGossip,
    "adaptive-fanout": AdaptiveFanoutGossip,
    "sparse": SparseGossip,
    "push-pull": PushPullGossip,
    "ps-push-pull": PanagiotouSpeidelPushPull,
})

#: Algorithms that solve the weaker *majority gossip* problem (Section 5).
MAJORITY_ALGORITHMS = frozenset({"tears"})

#: Algorithms with no stopping rule: they never quiesce, so full
#: completion (gathered ∧ quiescent ∧ empty network) is unsatisfiable and
#: the builder pairs them with the gathering-only monitor instead. The
#: ``uniform`` baseline keeps its historical caveat — a
#: ``stop_after_steps`` knob makes it quiescent, in which case the
#: standard monitor applies.
GATHERING_ONLY_ALGORITHMS = frozenset({"uniform", "ps-push-pull"})


# -- consensus get-core transports ----------------------------------------- #

TRANSPORTS = Registry("consensus transport", {
    "all-to-all": TrivialGossip,  # the original Canetti–Rabin O(n²) row
    "ears": Ears,
    "sears": Sears,
    "tears": Tears,
})

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

ADVERSARIES = Registry("adversary", {
    "uniform": _uniform_adversary,
    "synchronous": _synchronous_adversary,
    "gst": _gst_adversary,
    LOWER_BOUND: _lower_bound_adversary,
})


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


CRASH_PLANS = Registry("crash plan", {
    "none": _none_plan,
    "random-early": _random_early_plan,
    "wave": _wave_plan,
    "staggered-halving": _staggered_halving_plan,
})


# -- named scenarios ------------------------------------------------------- #
#
# The oblivious (d, δ)-adversary fixes delays and crashes before the run,
# so a scenario is only a (d, δ, crash plan) triple: ``crashes`` is a
# ``CRASH_PLANS`` config (``None``: failure-free), resolved with the
# spec's (n, f, seed) unless the spec sets ``crashes`` itself.

SCENARIOS = Registry("scenario", {
    "calm": {
        "d": 1, "delta": 1, "crashes": None,
        "description": "failure-free, maximal synchrony (d = δ = 1)",
    },
    "lossy-links": {
        "d": 4, "delta": 1, "crashes": None,
        "description": "slow network: message delays up to 4",
    },
    "skewed-speeds": {
        "d": 1, "delta": 4, "crashes": None,
        "description": "uneven scheduling: up to 4 steps between turns",
    },
    "flaky": {
        "d": 2, "delta": 2,
        "crashes": {"name": "random-early", "horizon": 16},
        "description": "mild asynchrony plus f random early crashes",
    },
    "failure-wave": {
        "d": 2, "delta": 2, "crashes": {"name": "wave"},
        "description": "all f victims crash simultaneously at t = 4",
    },
    "halving-epochs": {
        "d": 2, "delta": 2, "crashes": {"name": "staggered-halving"},
        "description": "crash waves halving the failure budget per epoch "
                       "(the EARS analysis's epoch structure)",
    },
})
