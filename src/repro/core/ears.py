"""EARS — Epidemic Asynchronous Rumor Spreading (Section 3, Figure 2).

Classic epidemic dissemination augmented with the informed-list progress
control that lets processes decide *when to stop* without any synchrony
bounds. Per local step a process sends its full knowledge ⟨V(p), I(p)⟩ to one
uniformly random target; once L(p) = ∅ it gossips through a shut-down phase
of Θ((n/(n−f)) log n) further steps and then sleeps, awakening if a new
rumor arrives.

Paper guarantees (oblivious adversary, w.h.p.):
time  O((n/(n−f)) · log² n · (d+δ)), messages O(n log³ n (d+δ)).
"""

from __future__ import annotations

from typing import Optional

from .epidemic import EpidemicGossip
from .params import DEFAULT_EARS, EarsParams


class Ears(EpidemicGossip):
    """EARS: fanout 1, shut-down phase of Θ((n/(n−f)) log n) sends."""

    #: A spec's ``params`` mapping names this dataclass's fields.
    params_class = EarsParams

    def __init__(
        self,
        pid: int,
        n: int,
        f: int,
        rumor_payload=None,
        params: Optional[EarsParams] = None,
    ) -> None:
        self.params = params if params is not None else DEFAULT_EARS
        super().__init__(
            pid,
            n,
            f,
            rumor_payload,
            fanout=1,
            shutdown_sends=self.params.shutdown_steps(n, f),
        )
