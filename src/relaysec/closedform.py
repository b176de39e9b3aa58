"""Closed-form secrecy outage probabilities for every selection scheme.

Single relay
------------
With both hops Rayleigh faded, the usable SNR of a decode-and-forward branch
is the minimum of the two hop SNRs, itself exponential with the summed rate
B.  Averaging the outage event over the eavesdropper's exponential fading
(rate a) against the ratio threshold rho gives the kernel

    W(B) = 1 - a * exp(-B*(rho-1)) / (B*rho + a)

evaluated here in the cancellation-free form
(B*rho - a*expm1(-B*(rho-1))) / (B*rho + a), which stays accurate for B -> 0
and saturates to exactly 1 for large B*(rho-1).  OS is the product of the
per-relay W(B_k), PS their minimum, and a pinned relay its own.

Multi-relay schemes
-------------------
Each instantaneous-CSI scheme is the total-probability sum over relays of
P[relay k wins the selection metric AND relay k is in outage].  Expanding the
CDF of the strongest competitor by inclusion-exclusion collapses every scheme
to the same shape,

    T_k = sum over subsets A of the other relays (empty set included) of
          (-1)^|A| * s_k/(s_k + c_A) * W_k(B_k + c_A)

where s_k is the rate of the metric the selection compares (SS-SR's is the
SR hop's, SS-RD's rule on the other hop), c_A the subset aggregate of the
competitors' metric rates (scaled back to the main-channel axis for SS-RE),
and B_k the selected branch's min-of-hops rate.  The empty subset contributes
W_k(B_k), which makes the N = 1 case collapse to the single-relay expression
with no special handling.

The sum has 2^(N-1) terms and at high SNR cancels almost completely.  T_k is
also the positive integral that the sum expands,

    T_k = int_0^inf s_k e^{-s_k t} prod_{i != k} (1 - e^{-c_i t}) h_k(t) dt,

over relay k's metric t, where h_k, relay k's outage given t, is 1 up to
t = rho-1 and then decays to a floor.  On the axis the selection compares,
m = scale_k * t, every relay faces the same competitors, so one Gauss-Legendre
grid split at each relay's kink scale_k*(rho-1) serves the whole cell; no
factor cancels or is divided out, so each T_k comes out to about 1e-15
relative at a cost linear in N.  T_k is the float64 subset sum for at most
_SUM_MAX_RELAYS relays, unless one relay's sum cancels past _CANCEL_GUARD,
and every relay's integral otherwise; any N >= 1 is evaluated.  On a
2-core VM an integrated TS cell took 0.06-0.22 ms at N = 4-16, 0.16-0.36 ms
at 32 (0-80 dB).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .params import (
    OS,
    PS,
    SS_RD,
    SS_RE,
    SS_SR,
    TS,
    CancellationError,
    ConfigError,
    RelayLinkParams,
    SelectionScheme,
    SystemConfig,
    single,
)
from .subsets import signed_sum, subset_terms

__all__ = [
    "OutageProbability",
    "single_relay_outage",
    "outage_os",
    "outage_ts",
    "outage_ss_re",
    "outage_ss_rd",
    "outage_ss_sr",
    "select_ps",
    "outage_ps",
    "outage_for_scheme",
]

# Raw values may stray outside [0, 1] by at most this much before the result
# is treated as a numerical failure rather than round-off.
CLAMP_TOL = 1e-9

# Cancellation level below which a relay's float64 subset sum (about 11 digits
# left at the guard) gives way to the product-form integral (about 1e-15).
_CANCEL_GUARD = 1e-5
# Largest relay count whose T_k are tried as float64 subset sums first: from
# N = 6 a cell that does not cancel integrates faster than it sums (timings in
# README's numerical notes), and the sum's error grows with N (5.3e-13 at
# N = 6).  Each sum ranges over the other N - 1 relays, within subsets' cap.
_SUM_MAX_RELAYS = 5


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1] by Newton's method on the
    Legendre recurrence, 1.4 MB leaner than numpy's leggauss (and LAPACK)."""
    x = np.cos(np.pi * (np.arange(n, 0, -1) - 0.25) / (n + 0.5))
    for _ in range(8):
        below, p = np.ones_like(x), x
        for k in range(2, n + 1):
            below, p = p, ((2 * k - 1) * x * p - (k - 1) * below) / k
        slope = n * (x * p - below) / (x * x - 1.0)
        x = x - p / slope
    return x, 2.0 / ((1.0 - x * x) * slope * slope)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(16)


@dataclass(frozen=True)
class OutageProbability:
    """A secrecy outage probability tagged with the scheme that produced it."""

    p: float
    scheme: SelectionScheme
    clamped: bool = False


def _as_probability(raw: float, scheme: SelectionScheme) -> OutageProbability:
    if not math.isfinite(raw):
        raise CancellationError(f"{scheme.label}: non-finite outage value {raw!r}")
    if 0.0 <= raw <= 1.0:
        return OutageProbability(raw, scheme)
    if -CLAMP_TOL <= raw < 0.0:
        return OutageProbability(0.0, scheme, clamped=True)
    if 1.0 < raw <= 1.0 + CLAMP_TOL:
        return OutageProbability(1.0, scheme, clamped=True)
    raise CancellationError(
        f"{scheme.label}: outage value {raw!r} outside [0, 1] beyond the "
        f"{CLAMP_TOL:g} clamp band"
    )


def _check_rho(rho: float) -> float:
    rho = float(rho)
    if not math.isfinite(rho) or rho < 1.0:
        raise ConfigError(f"rho must be finite and >= 1, got {rho!r}")
    return rho


def _kernel(main_rate: float, eve_rate: float, rho: float) -> float:
    """Outage of one branch: min-hop rate `main_rate` against eavesdropper
    fading with rate `eve_rate` at ratio threshold rho."""
    br = main_rate * rho
    if br == math.inf:  # B*rho past float64 (rate_rs near 512): the limit is 1
        return 1.0
    return (br - eve_rate * math.expm1(-main_rate * (rho - 1.0))) / (br + eve_rate)


def single_relay_outage(relay: RelayLinkParams, rho: float) -> OutageProbability:
    """Secrecy outage of a lone dual-hop branch at ratio threshold rho.

    rho = 1 is admitted as the zero-target-rate limit, where the value
    reduces to B / (B + eve_rate) with B the min-of-hops rate.
    """
    rho = _check_rho(rho)
    raw = _kernel(relay.main_rate, relay.eve_rate, rho)
    return _as_probability(raw, single(1))


def _branch_outages(cfg: SystemConfig) -> list[float]:
    """Every relay's single-branch outage W(B_k), in relay order."""
    rho = cfg.rho
    return [_kernel(r.main_rate, r.eve_rate, rho) for r in cfg.relays]


def outage_os(cfg: SystemConfig) -> OutageProbability:
    """Outage under best-secrecy-rate selection: the selected relay fails only
    if every relay fails, so the probability is the product of the per-relay
    single-branch outages."""
    return _as_probability(math.prod(_branch_outages(cfg)), OS)


def _selection_sum(
    cfg: SystemConfig,
    scheme: SelectionScheme,
    select_rates: list[float],
    couple_scales: list[float],
) -> OutageProbability:
    """Assemble sum_k T_k for a metric-based selection scheme.

    select_rates[k]  rate of relay k's own selection metric
    couple_scales[k] maps the comparison axis onto relay k's main-channel
                     rate axis (1 except for SS-RE); relay k's metric rate
                     on that axis is select_rates[k] / couple_scales[k]
    """
    weights = [s / c for s, c in zip(select_rates, couple_scales)]
    rho = cfg.rho
    if cfg.n_relays <= _SUM_MAX_RELAYS:
        contributions: list[float] = []
        for k, (relay, lead) in enumerate(zip(cfg.relays, _branch_outages(cfg))):
            peak = abs(lead)

            def term_value(term, _bk=relay.main_rate, _ak=relay.eve_rate,
                           _sk=select_rates[k], _sc=couple_scales[k]):
                nonlocal peak
                c = _sc * term.beta_prime
                v = (_sk / (_sk + c)) * _kernel(_bk + c, _ak, rho)
                if v > peak:
                    peak = v
                return v

            total = lead + signed_sum(subset_terms(weights, exclude=k + 1), term_value)
            if abs(total) < _CANCEL_GUARD * peak:
                break
            contributions.append(total)
        else:
            return _as_probability(math.fsum(contributions), scheme)
    return _as_probability(math.fsum(_cell_integrals(cfg, select_rates, weights, couple_scales)), scheme)


def _cell_integrals(
    cfg: SystemConfig, select_rates: list[float], weights: list[float], couple_scales: list[float]
) -> np.ndarray:
    """Every relay's T_k from the module docstring on one grid over the
    comparison axis m = scale_k*t:

        T_k = int_0^inf w_k e^{-w_k m} prod_{i != k} (1 - e^{-w_i m}) h_k((m - kink_k) / scale_k) dm

    with kink_k = scale_k*(rho-1) and h_k(x) = 1 for x <= 0.  Panels double
    outward from 0 and from each kink to the next, or to 90/min(w) past the
    last, and none reaches past 746/min(w), where every e^{-w_i m} is 0; the
    first is 1/max(w) wide, or less where an h_k decays faster.  Needs
    s_k <= b_k (every scheme)."""
    fast, slow = max(weights), min(weights)
    cut = 746.0 / slow
    d = cfg.rho - 1.0
    w = np.array(weights)[:, None]
    scale = np.array(couple_scales)
    g = np.array([r.main_rate for r in cfg.relays]) - select_rates
    q = np.array([r.eve_rate for r in cfg.relays]) / cfg.rho
    # Near rate_rs 512, g*d, kink_k and w_i*m overflow to inf; the factors
    # e^{-inf} = 0 and 1 - e^{-inf} = 1 are the intended limits.
    with np.errstate(over="ignore"):
        delta = g + q
        # There q can underflow to 0 where g is 0 (TS and SS-RE, or a hop
        # that rounds away from the main rate), so k_far and floor are 0/0;
        # that relay's kink then lies past cut, and neither is read.
        with np.errstate(invalid="ignore"):
            k_far = np.exp(-g * d) * q / delta
            floor = (g - q * np.expm1(-g * d)) / delta
        kinks = scale * d
        decay = delta / scale
        widths = {0.0: 1.0 / fast}
        for kink, rate in zip(kinks.tolist(), decay.tolist()):
            if kink < cut:
                widths[kink] = min(widths.get(kink, 1.0 / fast), 1.0 / rate)
        starts = sorted(widths)
        ends = starts[1:] + [min(starts[-1] + 90.0 / slow, cut)]
        panels = []
        for start, end in zip(starts, ends):
            lo, hi, span = 0.0, widths[start], end - start
            while lo < span:
                panels += (start, lo, min(hi, span))
                lo, hi = hi, 2.0 * hi
        origin, lower, upper = np.array(panels).reshape(-1, 3).T
        half = (upper - lower)[:, None] / 2.0
        offset = (lower[:, None] + half * (1.0 + _GL_NODES)).ravel()
        origin = np.repeat(origin, len(_GL_NODES))
        # Every (N, M) pass below works in place; negating w first gives the
        # bits of -(w*m), which both exponentials read.
        density = np.multiply(-w, origin + offset)
        cdf = np.expm1(density)
        np.negative(cdf, out=cdf)
        np.exp(density, out=density)
        # Relay k's competitors: the prefix product of the rows above k times
        # the suffix product of the rows below, each formed row by row in the
        # order of a cumulative product, with no factor divided out.
        others = np.empty_like(cdf)
        others[0] = 1.0
        for i in range(1, len(cdf)):
            np.multiply(others[i - 1], cdf[i - 1], out=others[i])
        for i in range(len(cdf) - 2, 0, -1):
            cdf[i] *= cdf[i + 1]
        others[:-1] *= cdf[1:]
        # h_k's exponent -delta_k*x, from each node's offset past its run's
        # start, which forming m would round away when rho-1 nears 4.5e307.
        # h_k is 1 wherever x > 0 fails, a NaN exponent included.
        h = np.subtract(kinks[:, None], origin)
        h -= offset
        h *= decay[:, None]
        flat = np.less(h, 0.0)
        np.logical_not(flat, out=flat)
        np.minimum(h, 0.0, out=h)
        np.exp(h, out=h)
        h *= k_far[:, None]
        h += floor[:, None]
        np.copyto(h, 1.0, where=flat)
        density *= w
        density *= others
        density *= h
        density *= (half * _GL_WEIGHTS).ravel()
        return np.sum(density, axis=1)


def outage_ts(cfg: SystemConfig) -> OutageProbability:
    """Outage when the relay with the strongest min-of-hops SNR is selected."""
    main = [r.main_rate for r in cfg.relays]
    return _selection_sum(cfg, TS, main, [1.0] * cfg.n_relays)


def outage_ss_re(cfg: SystemConfig) -> OutageProbability:
    """Outage when selection weights each min-of-hops SNR by the relay's own
    eavesdropper link rate (statistics of the leak channel).

    When every eavesdropper rate is equal the metric is a common positive
    scaling of the TS metric, so the result coincides with TS.
    """
    main = [r.main_rate for r in cfg.relays]
    return _selection_sum(cfg, SS_RE, main, [r.eve_rate for r in cfg.relays])


def outage_ss_rd(cfg: SystemConfig) -> OutageProbability:
    """Outage when only the relay-destination hop SNR drives the selection."""
    rd = [r.rd_rate for r in cfg.relays]
    return _selection_sum(cfg, SS_RD, rd, [1.0] * cfg.n_relays)


def outage_ss_sr(cfg: SystemConfig) -> OutageProbability:
    """Outage when only the source-relay hop SNR drives the selection: SS-RD's
    rule on the other hop, since either hop can equally limit the branch."""
    sr = [r.sr_rate for r in cfg.relays]
    return _selection_sum(cfg, SS_SR, sr, [1.0] * cfg.n_relays)


def select_ps(cfg: SystemConfig) -> int:
    """Statistics-only selection: the 1-based relay index minimising the
    single-branch outage.  Ties break to the lowest index."""
    branches = _branch_outages(cfg)
    return branches.index(min(branches)) + 1


def outage_ps(cfg: SystemConfig) -> OutageProbability:
    """Outage of the statistics-only scheme: the minimum single-branch value."""
    return _as_probability(min(_branch_outages(cfg)), PS)


_EVALUATORS = {"OS": outage_os, "TS": outage_ts, "SS-RE": outage_ss_re,
               "SS-RD": outage_ss_rd, "SS-SR": outage_ss_sr, "PS": outage_ps}


def outage_for_scheme(cfg: SystemConfig, scheme: SelectionScheme) -> OutageProbability:
    """Dispatch a scheme to its closed-form evaluator."""
    scheme.validate_for(cfg)
    if scheme.kind in _EVALUATORS:
        return _EVALUATORS[scheme.kind](cfg)
    relay = cfg.relays[scheme.relay - 1]
    return _as_probability(_kernel(relay.main_rate, relay.eve_rate, cfg.rho), scheme)
