"""Adversaries: the other player in the paper's complexity game.

Oblivious adversaries fix schedule, delays and crashes before the execution;
adaptive adversaries react to it. The executable Theorem 1 strategy lives in
:mod:`repro.adversary.lower_bound`.
"""

from .adaptive import (
    AdaptiveAdversary,
    CrashEagerSendersAdversary,
    ScriptedAdversary,
    TargetedDelayAdversary,
)
from .base import Adversary
from .crash_plans import (
    CrashPlan,
    crash_at,
    no_crashes,
    random_crashes,
    staggered_halving,
    wave_crashes,
)
from .delay_plans import (
    DelayPlan,
    FixedDelay,
    HashDelay,
    MutableDelay,
    SlowLinksDelay,
)
from .gst import GstAdversary
from .oblivious import ObliviousAdversary
from .._util import lazy_exports

# name -> defining submodule, imported on first use (see lazy_exports):
# the Theorem 1 strategy loads only for the runs that play it.
_EXPORTS = {
    "LowerBoundExperiment": "lower_bound",
    "LowerBoundReport": "lower_bound",
    "run_lower_bound": "lower_bound",
}

__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [
    "AdaptiveAdversary",
    "Adversary",
    "CrashEagerSendersAdversary",
    "CrashPlan",
    "DelayPlan",
    "FixedDelay",
    "GstAdversary",
    "HashDelay",
    "LowerBoundExperiment",
    "LowerBoundReport",
    "MutableDelay",
    "ObliviousAdversary",
    "run_lower_bound",
    "ScriptedAdversary",
    "SlowLinksDelay",
    "TargetedDelayAdversary",
    "crash_at",
    "no_crashes",
    "random_crashes",
    "staggered_halving",
    "wave_crashes",
]
