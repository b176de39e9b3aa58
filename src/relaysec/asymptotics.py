"""High-SNR behaviour: expansions, outage floors, dB gaps, diversity fits.

Balanced case: both hop mean SNRs grow together; the outage decays like a
power of 1/SNR whose exponent is the diversity order.  Unbalanced case: one
hop is pinned while the other grows; the outage then saturates at a floor
set entirely by the pinned hop and the eavesdropper statistics.

Expansion values are returned as-is even where they exceed 1 (the expansion
is only meaningful at high SNR); callers decide how to present that.  rho is
checked as the closed forms check it: rho = 1 gives the zero-rate limit.
"""

from __future__ import annotations

import decimal
import math
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .closedform import _check_rho, _kernel
from .params import ConfigError, _require_positive_finite

__all__ = [
    "AsymptoteResult",
    "asymp_single_balanced",
    "asymp_single_unbalanced",
    "asymp_os_balanced",
    "asymp_os_unbalanced_floor",
    "asymp_ts_balanced",
    "snr_gap_db",
    "diversity_order_estimate",
]


@dataclass(frozen=True)
class AsymptoteResult:
    """An asymptotic outage value, its floor when one exists, and the decay
    order (power of 1/SNR) of the SNR-dependent part."""

    value: float
    slope_order: int
    floor: float | None = None


def asymp_single_balanced(eve_rate: float, rho: float, mean_snr: float) -> AsymptoteResult:
    """Leading-order single-branch outage when both hops share mean SNR
    `mean_snr` and it grows large: 2/mean_snr * (rho/eve_rate + rho - 1),
    best-secrecy-rate selection over that one relay."""
    return asymp_os_balanced((eve_rate,), rho, mean_snr)


def asymp_single_unbalanced(
    fixed_rate: float, eve_rate: float, rho: float, mean_snr: float
) -> AsymptoteResult:
    """Single-branch outage with one hop pinned at rate `fixed_rate` while the
    other hop's mean SNR grows.

    The result splits into an SNR-independent floor, the single-branch
    outage W(fixed_rate), plus a term decaying like 1/mean_snr.  Which hop is
    pinned does not matter: the two unbalanced cases are symmetric.
    """
    fixed_rate = _require_positive_finite("fixed_rate", fixed_rate)
    eve_rate = _require_positive_finite("eve_rate", eve_rate)
    rho = _check_rho(rho)
    mean_snr = _require_positive_finite("mean_snr", mean_snr)
    floor = _kernel(fixed_rate, eve_rate, rho)
    emitted = eve_rate * math.exp(-fixed_rate * (rho - 1.0))
    varying = (rho + (rho - 1.0) * emitted) / (rho * fixed_rate + eve_rate) / mean_snr
    return AsymptoteResult(value=floor + varying, slope_order=1, floor=floor)


def asymp_os_balanced(
    eve_rates: Sequence[float], rho: float, mean_snr: float
) -> AsymptoteResult:
    """Best-secrecy-rate selection, balanced hops: the product of the
    per-relay leading-order terms, decaying like mean_snr^-N."""
    rho = _check_rho(rho)
    mean_snr = _require_positive_finite("mean_snr", mean_snr)
    rates = [_require_positive_finite("eve_rate", a) for a in eve_rates]
    if not rates:
        raise ConfigError("eve_rates must be non-empty")
    value = 1.0
    for a in rates:
        value *= (2.0 / mean_snr) * (rho / a + (rho - 1.0))
    return AsymptoteResult(value=value, slope_order=len(rates))


def asymp_os_unbalanced_floor(
    fixed_rates: Sequence[float], eve_rates: Sequence[float], rho: float
) -> AsymptoteResult:
    """Floor of best-secrecy-rate selection with every relay's pinned hop at
    the given rates: the product of the per-relay floors.  Each factor is
    below 1, so selection always improves on any single branch."""
    rho = _check_rho(rho)
    fixed = [_require_positive_finite("fixed_rate", b) for b in fixed_rates]
    eves = [_require_positive_finite("eve_rate", a) for a in eve_rates]
    if len(fixed) != len(eves) or not fixed:
        raise ConfigError("fixed_rates and eve_rates must share a length >= 1")
    floor = 1.0
    for b, a in zip(fixed, eves):
        floor *= _kernel(b, a, rho)
    return AsymptoteResult(value=floor, slope_order=1, floor=floor)


def asymp_ts_balanced(
    eve_rates: Sequence[float], rho: float, mean_snr: float
) -> AsymptoteResult:
    """Strongest-main-channel selection, balanced case, decaying like
    mean_snr^-N.  `mean_snr` is the mean of each relay's min-of-hops SNR
    (the reciprocal of the composite branch rate).

    Evaluated exactly as published, inner relay sum included:

        (1/mean_snr)^N * sum_k sum_i sum_{j=0..N}
            C(N,j) (rho-1)^j rho^(N-j) (N-j)! / (N * eve_rate_k^(N-j))

    The inner sum carries no i-dependent factor, so it multiplies by N and
    cancels the 1/N; numerically the expression tracks the exact curve's
    slope but sits a factor N above its level.  Where a power or factorial
    leaves the normal float range, the same expression is summed in 40-digit
    decimals instead, and a value beyond DBL_MAX is returned as inf.
    """
    rho = _check_rho(rho)
    mean_snr = _require_positive_finite("mean_snr", mean_snr)
    rates = [_require_positive_finite("eve_rate", a) for a in eve_rates]
    n = len(rates)
    if n < 1:
        raise ConfigError("eve_rates must be non-empty")
    beta = 1.0 / mean_snr
    try:
        value = _ts_sum(rates, rho, beta, n)
        # No power fell below the normal range (rho = 1 makes exact zeros),
        # and no denominator overflowed.
        exact = (min(*rates, rho - 1.0 or 1.0, beta, 1.0) ** n >= sys.float_info.min
                 and n * max(*rates, 1.0) ** n <= sys.float_info.max)
    except (OverflowError, ZeroDivisionError):
        exact = False
    if not (exact and sys.float_info.min <= value <= sys.float_info.max):
        wide = decimal.Context(prec=40, Emax=decimal.MAX_EMAX, Emin=decimal.MIN_EMIN)
        with decimal.localcontext(wide):
            d = decimal.Decimal
            value = float(_ts_sum([d(a) for a in rates], d(rho), 1 / d(mean_snr), n))
    return AsymptoteResult(value=value, slope_order=n)


def _ts_sum(rates, rho, beta, n):
    """asymp_ts_balanced's published sum, in the arithmetic of its arguments
    (in loops: the builtin sum() compensates float rounding from Python 3.12)."""
    total = 0
    for a in rates:
        inner = 0
        for j in range(n + 1):
            inner += (
                math.comb(n, j)
                # 0 ** 0 (at rho = 1) is an error in decimals.
                * ((rho - 1) ** j if j else 1)
                * rho ** (n - j)
                * math.factorial(n - j)
                / (n * a ** (n - j))
            )
        total += n * inner
    return beta**n * total


def snr_gap_db(eve_rate_from: float, eve_rate_to: float, rho: float) -> float:
    """Extra main-channel SNR (dB) needed to hold the outage level when the
    eavesdropper's mean SNR improves from 1/eve_rate_from to 1/eve_rate_to.

    Requires eve_rate_from >= eve_rate_to (the eavesdropper got better or
    stayed put).  Strictly decreasing in rho: the penalty for a better
    eavesdropper shrinks as the target rate grows.
    """
    eve_rate_from = _require_positive_finite("eve_rate_from", eve_rate_from)
    eve_rate_to = _require_positive_finite("eve_rate_to", eve_rate_to)
    rho = _check_rho(rho)
    if eve_rate_from < eve_rate_to:
        raise ConfigError(
            "eve_rate_from must be >= eve_rate_to (improving eavesdropper)"
        )
    shift = (rho - 1.0) / rho
    return 10.0 * math.log10((1.0 / eve_rate_to + shift) / (1.0 / eve_rate_from + shift))


def diversity_order_estimate(
    outage_curve: Sequence[tuple[float, float]],
    window_db: float | None = 20.0,
) -> float:
    """Fitted diversity order of an outage curve.

    `outage_curve` holds (mean SNR in dB, outage probability) points in
    ascending SNR order with every probability positive.  The fit is the
    least-squares slope of -log10(p) against snr_db/10, restricted by
    default to the top 20 dB of the grid (the decay order is a high-SNR
    limit, and low-SNR points bias the slope); pass window_db=None to use
    every point.
    """
    points = [(float(db), float(p)) for db, p in outage_curve]
    if len(points) < 2:
        raise ConfigError("need at least two curve points")
    for db, p in points:
        if not math.isfinite(db):
            raise ConfigError(f"non-finite SNR value {db!r}")
        if not math.isfinite(p) or p <= 0.0:
            raise ConfigError(f"outage values must be positive, got {p!r}")
    dbs = [db for db, _ in points]
    if any(b <= a for a, b in zip(dbs, dbs[1:])):
        raise ConfigError("curve points must be in strictly ascending SNR order")
    if window_db is not None:
        cutoff = dbs[-1] - float(window_db)
        points = [(db, p) for db, p in points if db >= cutoff]
        if len(points) < 2:
            raise ConfigError("fit window leaves fewer than two points")
    x = np.array([db / 10.0 for db, _ in points])
    y = np.array([-math.log10(p) for _, p in points])
    slope, _ = np.polyfit(x, y, 1)
    return float(slope)
