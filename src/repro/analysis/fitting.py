"""Log–log scaling fits.

The paper's bounds are asymptotic; our reproduction checks the *shape* of
measured curves. The primary tool is a least-squares power-law fit
``y ≈ c · x^e`` on log-transformed data; ``fit_power_law_with_log`` also
fits ``y ≈ c · x^e · ln(x)^k`` for a given k, which removes the upward bias
polylog factors put on a plain exponent estimate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union


@dataclass(frozen=True)
class PowerLawFit:
    """y ≈ coefficient · x^exponent (after dividing out declared logs)."""

    exponent: float
    coefficient: float
    r_squared: float
    log_power: float = 0.0

    def predict(self, x: float) -> float:
        value = self.coefficient * x ** self.exponent
        if self.log_power:
            value *= math.log(max(2.0, x)) ** self.log_power
        return value


@dataclass(frozen=True)
class SkippedFit:
    """A fit that could not be computed, as data instead of an exception.

    Sweep drivers and report renderers hit degenerate inputs routinely —
    a single-n sweep has one distinct x, a cell where nothing completed
    has no positive ys.  :func:`fit_power_law` keeps raising (callers
    that want the error still get it); :func:`safe_fit_power_law` returns
    one of these instead so an analysis pipeline degrades to a "fit
    skipped: <reason>" table row rather than crashing mid-report.

    Mirrors the :class:`PowerLawFit` attribute surface with NaNs so
    numeric consumers that forget to check :attr:`skipped` degrade to
    NaN columns, not AttributeErrors.
    """

    reason: str
    exponent: float = float("nan")
    coefficient: float = float("nan")
    r_squared: float = float("nan")
    log_power: float = 0.0

    @property
    def skipped(self) -> bool:
        return True

    def predict(self, x: float) -> float:
        return float("nan")


def _least_squares_line(xs: Sequence[float], ys: Sequence[float]):
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    sxx = sum((x - mean_x) ** 2 for x in xs)
    sxy = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    if sxx == 0:
        raise ValueError("all x values identical; cannot fit")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    ss_res = sum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)
    )
    ss_tot = sum((y - mean_y) ** 2 for y in ys)
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return slope, intercept, r2


def fit_power_law(xs: Sequence[float], ys: Sequence[float]) -> PowerLawFit:
    """Fit y ≈ c·x^e by least squares in log–log space."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) points")
    if any(x <= 0 for x in xs) or any(y <= 0 for y in ys):
        raise ValueError("power-law fits need positive data")
    log_xs = [math.log(x) for x in xs]
    log_ys = [math.log(y) for y in ys]
    slope, intercept, r2 = _least_squares_line(log_xs, log_ys)
    return PowerLawFit(exponent=slope, coefficient=math.exp(intercept),
                       r_squared=r2)


def fit_power_law_with_log(
    xs: Sequence[float], ys: Sequence[float], log_power: float
) -> PowerLawFit:
    """Fit y ≈ c · x^e · ln(x)^k with k fixed (divide out the log factor)."""
    adjusted = [
        y / math.log(max(2.0, x)) ** log_power for x, y in zip(xs, ys)
    ]
    base = fit_power_law(xs, adjusted)
    return PowerLawFit(
        exponent=base.exponent,
        coefficient=base.coefficient,
        r_squared=base.r_squared,
        log_power=log_power,
    )


def safe_fit_power_law(
    xs: Sequence[float], ys: Sequence[float], log_power: float = 0.0
) -> Union[PowerLawFit, SkippedFit]:
    """As :func:`fit_power_law` (or, with ``log_power``,
    :func:`fit_power_law_with_log`), but degenerate data returns a
    :class:`SkippedFit` describing why instead of raising.

    Degenerate shapes a sweep can legitimately produce: fewer than two
    points (single-cell sweep), non-positive values (a cell where no
    trial completed aggregates to NaN), and a single distinct x (one n
    swept over many seeds).  Dispatch on ``fit.skipped`` — or let the
    NaN attributes flow through numeric columns.
    """
    finite = [
        (x, y) for x, y in zip(xs, ys)
        if math.isfinite(x) and math.isfinite(y)
    ]
    if len(xs) != len(ys):
        return SkippedFit(reason="x/y length mismatch")
    if len(finite) < 2:
        return SkippedFit(
            reason=f"need at least two finite points, have {len(finite)}"
        )
    fxs, fys = zip(*finite)
    if any(x <= 0 for x in fxs) or any(y <= 0 for y in fys):
        return SkippedFit(reason="non-positive data (log–log undefined)")
    if len(set(fxs)) < 2:
        return SkippedFit(
            reason="all x values identical; exponent is unconstrained"
        )
    if log_power:
        return fit_power_law_with_log(fxs, fys, log_power)
    return fit_power_law(fxs, fys)

