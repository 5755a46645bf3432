"""Closed-form complexity formulas from the paper (Tables 1–2, Theorem 1).

Each function evaluates the *shape* inside a paper bound (logs are natural,
constants normalized to 1) so benches can overlay measured curves against
predicted ones and fit ratios. These are reference curves, not guarantees.
"""

from __future__ import annotations

from .._util import ln


# -- Table 1: gossip ----------------------------------------------------- #

def trivial_time(d: int, delta: int) -> float:
    """Trivial direct gossip: O(d + δ)."""
    return float(d + delta)


def trivial_messages(n: int) -> float:
    """Trivial direct gossip: Θ(n²) (exactly n(n−1))."""
    return float(n * (n - 1))


def ears_time(n: int, f: int, d: int, delta: int) -> float:
    """EARS: O((n/(n−f)) · log² n · (d+δ))."""
    return n / max(1, n - f) * ln(n) ** 2 * (d + delta)


def ears_messages(n: int, f: int, d: int, delta: int) -> float:
    """EARS: O(n · log³ n · (d+δ))."""
    return n * ln(n) ** 3 * (d + delta)


def sears_time(n: int, f: int, eps: float, d: int, delta: int) -> float:
    """SEARS: O((n/(ε(n−f))) · (d+δ)) — constant in n for f ≤ n/2."""
    return n / (eps * max(1, n - f)) * (d + delta)


def sears_messages(n: int, f: int, eps: float, d: int, delta: int) -> float:
    """SEARS: O((n^{2+ε}/(ε(n−f))) · log n · (d+δ))."""
    return n ** (2 + eps) / (eps * max(1, n - f)) * ln(n) * (d + delta)


def tears_time(d: int, delta: int) -> float:
    """TEARS: O(d + δ)."""
    return float(d + delta)


def tears_messages(n: int) -> float:
    """TEARS: O(n^{7/4} · log² n) — no d or δ dependence."""
    return n ** 1.75 * ln(n) ** 2


def ck_time(n: int) -> float:
    """CK [9] synchronous gossip: O(polylog n); log² n representative."""
    return ln(n) ** 2


def ck_messages(n: int) -> float:
    """CK [9]: O(n polylog n); n·log² n representative."""
    return n * ln(n) ** 2


# -- Table 2: consensus --------------------------------------------------- #

def cr_time(d: int, delta: int) -> float:
    """Canetti–Rabin with all-to-all get-core: O(d + δ)."""
    return float(d + delta)


def cr_messages(n: int) -> float:
    """Canetti–Rabin with all-to-all get-core: O(n²)."""
    return float(n * n)


def cr_ears_time(n: int, d: int, delta: int) -> float:
    """CR-ears: O(log² n · (d+δ))."""
    return ln(n) ** 2 * (d + delta)


def cr_ears_messages(n: int, d: int, delta: int) -> float:
    """CR-ears: O(n log³ n (d+δ))."""
    return n * ln(n) ** 3 * (d + delta)


def cr_sears_time(eps: float, d: int, delta: int) -> float:
    """CR-sears: O((1/ε)(d+δ))."""
    return (d + delta) / eps


def cr_sears_messages(n: int, eps: float, d: int, delta: int) -> float:
    """CR-sears: O((1/ε) n^{1+ε} log n (d+δ))."""
    return n ** (1 + eps) * ln(n) * (d + delta) / eps


def cr_tears_time(d: int, delta: int) -> float:
    """CR-tears: O(d + δ)."""
    return float(d + delta)


def cr_tears_messages(n: int) -> float:
    """CR-tears: O(n^{7/4} log² n) — the first strictly sub-quadratic
    constant-time randomized consensus."""
    return n ** 1.75 * ln(n) ** 2


#: Predicted message-scaling exponents in n (log factors excluded); the
#: scaling benches compare fitted exponents to these.
PREDICTED_MESSAGE_EXPONENTS = {
    "trivial": 2.0,
    "ears": 1.0,
    "sears": lambda eps: 1.0 + eps,  # for f a constant fraction of n
    "tears": 1.75,
}
