"""Randomized asynchronous consensus from message-efficient gossip
(Section 6 of the paper).

:class:`CanettiRabinConsensus` parameterized by a gossip transport yields
the Table 2 protocols: CR (all-to-all), CR-ears, CR-sears and CR-tears.
:class:`BenOrConsensus` is the historical local-coin baseline.
"""

from .ben_or import BenOrConsensus
from .canetti_rabin import CanettiRabinConsensus
from .coin import combine, flip
from .multivalued import MultivaluedConsensus, run_multivalued_consensus
from .properties import (
    agreement_holds,
    collect_decisions,
    termination_holds,
    validity_holds,
)
from .runner import default_values, run_consensus
from .values import (
    BOTTOM,
    ConsensusRun,
    Envelope,
    InstanceTag,
    VOTING_COIN,
    VOTING_ESTIMATE,
    VOTING_PREFERENCE,
    first_instance,
)

__all__ = [
    "BOTTOM",
    "BenOrConsensus",
    "CanettiRabinConsensus",
    "ConsensusRun",
    "Envelope",
    "InstanceTag",
    "MultivaluedConsensus",
    "run_multivalued_consensus",
    "VOTING_COIN",
    "VOTING_ESTIMATE",
    "VOTING_PREFERENCE",
    "agreement_holds",
    "collect_decisions",
    "combine",
    "default_values",
    "first_instance",
    "flip",
    "run_consensus",
    "termination_holds",
    "validity_holds",
]
