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
from .byzantine import BEHAVIORS as BYZANTINE_BEHAVIORS
from .byzantine import ByzantineAdversary
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

# The Theorem 1 strategy loads on first use: no other run plays it.
__getattr__, __dir__ = lazy_exports(__name__, dict.fromkeys(
    ("LowerBoundExperiment", "LowerBoundReport", "run_lower_bound"),
    "lower_bound"))

__all__ = [
    "AdaptiveAdversary",
    "Adversary",
    "BYZANTINE_BEHAVIORS",
    "ByzantineAdversary",
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
