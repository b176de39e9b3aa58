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
and saturates to exactly 1 for large B*(rho-1).

Multi-relay schemes
-------------------
Each instantaneous-CSI scheme is the total-probability sum over relays of
P[relay k wins the selection metric AND relay k is in outage].  Expanding the
CDF of the strongest competitor by inclusion-exclusion collapses every scheme
to the same shape,

    T_k = sum over subsets A of the other relays (empty set included) of
          (-1)^|A| * s_k/(s_k + c_A) * W_k(B_k + c_A)

where s_k is the rate of the metric the selection compares, c_A the subset
aggregate of the competitors' metric rates (scaled back to the main-channel
axis for SS-RE), and B_k the selected branch's min-of-hops rate.  The empty
subset contributes W_k(B_k), which makes the N = 1 case collapse to the
single-relay expression with no special handling.

The sum has 2^(N-1) terms and at high SNR cancels almost completely.  T_k is
also the positive integral that the sum expands,

    T_k = int_0^inf s_k e^{-s_k t} prod_{i != k} (1 - e^{-c_i t}) h_k(t) dt,

over relay k's metric t, where h_k, relay k's outage given t, is 1 up to
t = rho-1 and then decays to a floor.  No factor cancels, so a Gauss-Legendre
rule on geometric panels evaluates it to about 1e-15 relative in time linear
in N.  T_k is the float64 subset sum for at most _SUM_MAX_RELAYS relays unless
the sum cancels past _CANCEL_GUARD, and the integral otherwise; any N >= 1 is
evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .params import (
    OS,
    PS,
    SS_RD,
    SS_RE,
    SS_SR,
    TS,
    ConfigError,
    RelayLinkParams,
    SelectionScheme,
    SystemConfig,
    single,
)
from .subsets import signed_sum, subset_terms

__all__ = [
    "OutageProbability",
    "CancellationError",
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
# Largest relay count whose T_k are tried as float64 subset sums first.  On a
# 2-core VM a cell that does not cancel took 0.37 ms summed and 0.64-0.92 ms
# integrated at N = 6, tied at N = 7 and lost at N = 8 (1.6-1.8 ms against
# 0.87-1.26 ms); the sum's error also grows with N (1.3e-12 at N = 10).
_SUM_MAX_RELAYS = 6
_GL_NODES, _GL_WEIGHTS = leggauss(16)


class CancellationError(ArithmeticError):
    """Assembled probability fell outside [0, 1] by more than round-off."""


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
        f"{CLAMP_TOL:g} clamp band; alternating-sum cancellation blew up"
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


def outage_os(cfg: SystemConfig) -> OutageProbability:
    """Outage under best-secrecy-rate selection: the selected relay fails only
    if every relay fails, so the probability is the product of the per-relay
    single-branch outages."""
    rho = cfg.rho
    p = 1.0
    for r in cfg.relays:
        p *= _kernel(r.main_rate, r.eve_rate, rho)
    return _as_probability(p, OS)


def _selection_sum(
    cfg: SystemConfig,
    scheme: SelectionScheme,
    select_rates: list[float],
    weights: list[float],
    couple_scales: list[float],
) -> OutageProbability:
    """Assemble sum_k T_k for a metric-based selection scheme.

    select_rates[k]  rate of relay k's own selection metric
    weights[i]       competitor i's metric rate on the comparison axis
    couple_scales[k] maps a subset aggregate of `weights` back onto relay k's
                     main-channel rate axis (1 except for SS-RE)
    """
    rho = cfg.rho
    n = cfg.n_relays
    contributions: list[float] = []
    for k in range(n):
        b_k = cfg.relays[k].main_rate
        a_k = cfg.relays[k].eve_rate
        s_k = select_rates[k]
        scale = couple_scales[k]
        if n <= _SUM_MAX_RELAYS:
            lead = _kernel(b_k, a_k, rho)
            peak = abs(lead)

            def term_value(term, _bk=b_k, _ak=a_k, _sk=s_k, _sc=scale):
                nonlocal peak
                c = _sc * term.beta_prime
                v = (_sk / (_sk + c)) * _kernel(_bk + c, _ak, rho)
                if v > peak:
                    peak = v
                return v

            total = lead + signed_sum(subset_terms(weights, exclude=k + 1), term_value)
            if n == 1 or abs(total) >= _CANCEL_GUARD * peak:
                contributions.append(total)
                continue
        contributions.append(_product_integral(b_k, a_k, s_k, scale * np.delete(weights, k), rho))
    return _as_probability(math.fsum(contributions), scheme)


def _panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on each interval between `edges`."""
    half = np.diff(edges)[:, None] / 2.0
    return (edges[:-1, None] + half * (1.0 + _GL_NODES)).ravel(), (half * _GL_WEIGHTS).ravel()


def _product_integral(b_k: float, a_k: float, s_k: float, c: np.ndarray, rho: float) -> float:
    """T_k from the module docstring, with c the competitors' metric rates.  Head
    panels halve from rho-1 towards 0 until the fastest rate resolves them; tail
    panels double away from rho-1 out to 90/s_k.  Needs s_k <= b_k (every scheme)."""
    d = rho - 1.0
    g = b_k - s_k
    q = a_k / rho
    delta = g + q
    k_far = math.exp(-g * d) * q / delta
    floor = (g - q * math.expm1(-g * d)) / delta
    fast = max(float(c.max()), s_k)
    n_head = max(0, math.frexp(d)[1] + math.frexp(fast)[1])
    step = 1.0 / max(fast, delta)
    n_tail = math.frexp(90.0 / s_k)[1] - math.frexp(step)[1]
    head_t, head_w = _panels(np.concatenate(([0.0], np.ldexp(d, -np.arange(n_head, -1, -1)))))
    tail_x, tail_w = _panels(np.concatenate(([0.0], np.ldexp(step, np.arange(n_tail + 1)))))
    t = np.concatenate((head_t, d + tail_x))
    w = np.concatenate((head_w, tail_w * (floor + k_far * np.exp(-delta * tail_x))))
    # Near rate_rs 512, s_k*t and t*c overflow to inf; the factors e^{-inf} = 0
    # and 1 - e^{-inf} = 1 are the intended limits.
    with np.errstate(over="ignore"):
        f = s_k * np.exp(-s_k * t) * (-np.expm1(-np.multiply.outer(t, c))).prod(axis=1)
    return float(np.sum(w * f))


def outage_ts(cfg: SystemConfig) -> OutageProbability:
    """Outage when the relay with the strongest min-of-hops SNR is selected."""
    main = [r.main_rate for r in cfg.relays]
    return _selection_sum(cfg, TS, main, main, [1.0] * cfg.n_relays)


def outage_ss_re(cfg: SystemConfig) -> OutageProbability:
    """Outage when selection weights each min-of-hops SNR by the relay's own
    eavesdropper link rate (statistics of the leak channel).

    When every eavesdropper rate is equal the metric is a common positive
    scaling of the TS metric, so the result coincides with TS.
    """
    main = [r.main_rate for r in cfg.relays]
    weights = [r.main_rate / r.eve_rate for r in cfg.relays]
    scales = [r.eve_rate for r in cfg.relays]
    return _selection_sum(cfg, SS_RE, main, weights, scales)


def outage_ss_rd(cfg: SystemConfig) -> OutageProbability:
    """Outage when only the relay-destination hop SNR drives the selection."""
    rd = [r.rd_rate for r in cfg.relays]
    return _selection_sum(cfg, SS_RD, rd, rd, [1.0] * cfg.n_relays)


def outage_ss_sr(cfg: SystemConfig) -> OutageProbability:
    """Outage when only the source-relay hop SNR drives the selection.

    Mirror image of SS-RD under a hop swap, and computed exactly that way.
    """
    swapped = outage_ss_rd(cfg.swap_hops())
    return OutageProbability(swapped.p, SS_SR, swapped.clamped)


def select_ps(cfg: SystemConfig) -> int:
    """Statistics-only selection: the 1-based relay index minimising the
    single-branch outage.  Ties break to the lowest index."""
    rho = cfg.rho
    best_k = 1
    best_p = _kernel(cfg.relays[0].main_rate, cfg.relays[0].eve_rate, rho)
    for k, r in enumerate(cfg.relays[1:], start=2):
        p = _kernel(r.main_rate, r.eve_rate, rho)
        if p < best_p:
            best_p = p
            best_k = k
    return best_k


def outage_ps(cfg: SystemConfig) -> OutageProbability:
    """Outage of the statistics-only scheme: the minimum single-branch value."""
    k = select_ps(cfg)
    p = single_relay_outage(cfg.relays[k - 1], cfg.rho)
    return OutageProbability(p.p, PS, p.clamped)


_EVALUATORS = {"OS": outage_os, "TS": outage_ts, "SS-RE": outage_ss_re,
               "SS-RD": outage_ss_rd, "SS-SR": outage_ss_sr, "PS": outage_ps}


def outage_for_scheme(cfg: SystemConfig, scheme: SelectionScheme) -> OutageProbability:
    """Dispatch a scheme to its closed-form evaluator."""
    scheme.validate_for(cfg)
    if scheme.kind in _EVALUATORS:
        return _EVALUATORS[scheme.kind](cfg)
    p = single_relay_outage(cfg.relays[scheme.relay - 1], cfg.rho)
    return OutageProbability(p.p, scheme, p.clamped)
