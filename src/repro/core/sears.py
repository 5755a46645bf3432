"""SEARS — Spamming Epidemic Asynchronous Rumor Spreading (Section 4).

The constant-time variant of EARS: the only differences are that each local
step "spams" Θ(nᵉ log n) random targets instead of one, and the shut-down
phase is a single step. Rumors then multiply their audience by a factor of
nᵉ per dissemination round, so a constant (1/ε) number of rounds suffices.

Paper guarantees (oblivious adversary, ε < 1, w.h.p.):
time O((n/(ε(n−f))) · (d+δ)) — constant in n for f ≤ n/2 —
messages O((n^{2+ε}/(ε(n−f))) · log n · (d+δ)) (sub-quadratic for f ≤ n/2).
"""

from __future__ import annotations

from typing import Optional

from .epidemic import EpidemicGossip
from .params import DEFAULT_SEARS, SearsParams


class Sears(EpidemicGossip):
    """SEARS: fanout Θ(nᵉ log n), exactly one shut-down send."""

    #: A spec's ``params`` mapping names this dataclass's fields.
    params_class = SearsParams

    def __init__(
        self,
        pid: int,
        n: int,
        f: int,
        rumor_payload=None,
        params: Optional[SearsParams] = None,
    ) -> None:
        self.params = params if params is not None else DEFAULT_SEARS
        super().__init__(
            pid,
            n,
            f,
            rumor_payload,
            fanout=self.params.fanout(n),
            shutdown_sends=self.params.shutdown_steps,
        )
