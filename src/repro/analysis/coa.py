"""Cost of asynchrony (Corollary 2).

For an asynchronous algorithm A, the paper defines

    T(A)_CoA = max_{d,δ} T_A(d,δ) / min_Â T_Â(d,δ)
    M(A)_CoA = max_{d,δ} M_A(d,δ) / min_Â M_Â(d,δ)

where Â ranges over synchronous algorithms that know d = δ = 1, and
concludes that every asynchronous algorithm has T_CoA = Ω(f) or
M_CoA = Ω(1 + f²/n).

Empirically we evaluate the ratios at d = δ = 1 (where the synchronous
denominator is defined) using the best measured synchronous baseline, and
compare against the corollary's floor. The denominator is itself an upper
bound on the optimum (our baselines are merely *good*, not optimal), so the
measured ratios are *lower* bounds on the true CoA — the conservative
direction for checking an Ω(·) statement.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CoaReport:
    """Measured cost-of-asynchrony ratios for one asynchronous algorithm."""

    algorithm: str
    n: int
    f: int
    asynch_time: float
    asynch_messages: float
    synch_time: float
    synch_messages: float

    @property
    def time_ratio(self) -> float:
        return self.asynch_time / max(1.0, self.synch_time)

    @property
    def message_ratio(self) -> float:
        return self.asynch_messages / max(1.0, self.synch_messages)


def coa_report(
    algorithm: str,
    n: int,
    f: int,
    asynch_time: float,
    asynch_messages: float,
    synch_time: float,
    synch_messages: float,
) -> CoaReport:
    return CoaReport(
        algorithm=algorithm, n=n, f=f,
        asynch_time=asynch_time, asynch_messages=asynch_messages,
        synch_time=synch_time, synch_messages=synch_messages,
    )
