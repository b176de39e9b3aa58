"""Shared test oracles, independent of the implementation paths they check."""

import math

import mpmath
import numpy as np
from scipy import integrate

from relaysec import RelayLinkParams, SystemConfig


def quad_single_outage(relay: RelayLinkParams, rho: float) -> float:
    """Single-branch outage by adaptive quadrature.

    Integrates the min-of-hops CDF at the eavesdropper-dependent threshold
    rho*(1+g)-1 against the eavesdropper's exponential density, which stays
    independent of the algebraic closed form.
    """
    b = relay.main_rate
    a = relay.eve_rate

    def integrand(g):
        lam = rho * (1.0 + g) - 1.0
        return (1.0 - np.exp(-b * lam)) * a * np.exp(-a * g)

    value, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-12, epsrel=1e-12, limit=400)
    return value


def _quad_pieces(f, d, scales, slowest):
    """Integral over [0, inf) of f, which decays at least as fast as
    e^{-slowest x}: [0, d], then pieces of [d, inf) growing 4x from the
    fastest scale until past 100/slowest and negligible against the sum."""
    parts = [integrate.quad(f, 0.0, d, epsabs=0.0, epsrel=1e-13, limit=200)[0]]
    edge, step = d, 1.0 / max(scales)
    while step < 100.0 / slowest or parts[-1] > 1e-17 * math.fsum(parts):
        parts.append(integrate.quad(f, edge, d + step, epsabs=0.0, epsrel=1e-13, limit=200)[0])
        edge, step = d + step, 4.0 * step
    return math.fsum(parts)


def _selection_rates(cfg: SystemConfig, kind: str, k: int):
    """Relay k's metric rate s and its competitors' metric rates on its axis."""
    relay = cfg.relays[k]
    others = [r for i, r in enumerate(cfg.relays) if i != k]
    if kind == "TS":
        return relay.main_rate, [r.main_rate for r in others]
    if kind == "SS-RE":
        return relay.main_rate, [r.main_rate * relay.eve_rate / r.eve_rate for r in others]
    if kind == "SS-RD":
        return relay.rd_rate, [r.rd_rate for r in others]
    return relay.sr_rate, [r.sr_rate for r in others]


def quad_selection_outage(cfg: SystemConfig, kind: str) -> float:
    """TS, SS-RE, SS-RD or SS-SR outage as a sum over relays k of

        int_0^inf s e^{-s x} prod_{i != k} (1 - e^{-c_i x}) h(x) dx,

    with x relay k's selection metric (rate s), c_i competitor i's metric
    rate on x's axis and h the probability that relay k is in outage given
    x.  Nothing is expanded, so no term cancels; split at rho-1, where h
    leaves 1.
    """
    rho = cfg.rho
    d = rho - 1.0
    terms = []
    for k, relay in enumerate(cfg.relays):
        s, cs = _selection_rates(cfg, kind, k)
        q = relay.eve_rate / rho
        if kind in ("TS", "SS-RE"):
            # x is the min-of-hops SNR; outage is the eavesdropper exceeding (x-d)/rho.
            def h(x, q=q):
                return 1.0 if x <= d else math.exp(-q * (x - d))
        else:
            # x is one hop's SNR; the other hop u (rate o) may cap the branch
            # below x: outage 1 for u <= d, e^{-q(u-d)} for d < u < x, and
            # e^{-q(x-d)} for u >= x.
            o = relay.sr_rate if kind == "SS-RD" else relay.rd_rate

            def h(x, q=q, o=o):
                if x <= d:
                    return 1.0
                capped = o * math.exp(-o * d) * -math.expm1(-(o + q) * (x - d)) / (o + q)
                return -math.expm1(-o * d) + capped + math.exp(-o * x - q * (x - d))

        def f(x, s=s, cs=cs, h=h):
            value = s * math.exp(-s * x) * h(x)
            for c in cs:
                value *= -math.expm1(-c * x)
            return value

        terms.append(_quad_pieces(f, d, cs + [s, q], s))
    return math.fsum(terms)


def mp_selection_outage(cfg: SystemConfig, kind: str, dps: int = 90) -> float:
    """TS, SS-RE, SS-RD or SS-SR outage as the paper's inclusion-exclusion sum
    over subsets A of relay k's competitors, summed over relays k,

        (-1)^|A| s/(s + c_A) (1 - a e^{-(B + c_A)(rho-1)} / ((B + c_A) rho + a)),

    in `dps`-digit arithmetic from the float64 inputs taken exactly.  s is
    relay k's metric rate, c_A the summed metric rates of A on its axis, B its
    min-of-hops rate and a its eavesdropper rate.  Each subset's sums and
    exponential extend a smaller subset's by one member.
    """
    with mpmath.workdps(dps):
        rho = mpmath.mpf(cfg.rho)
        d = rho - 1
        total = mpmath.mpf(0)
        for k, relay in enumerate(cfg.relays):
            s, cs = _selection_rates(cfg, kind, k)
            s, b, a = mpmath.mpf(s), mpmath.mpf(relay.main_rate), mpmath.mpf(relay.eve_rate)
            # (sign, s + c_A, (B + c_A) rho + a, a e^{-(B + c_A) d})
            subsets = [(1, s, b * rho + a, a * mpmath.exp(-b * d))]
            for c in map(mpmath.mpf, cs):
                c_rho, fade = c * rho, mpmath.exp(-c * d)
                subsets += [(-sign, sc + c, den + c_rho, e * fade) for sign, sc, den, e in subsets]
            part = mpmath.mpf(0)
            for sign, sc, den, e in subsets:
                term = (den - e) / (sc * den)
                part = part + term if sign > 0 else part - term
            total += s * part
        return float(total)


def product_cdf(weights, x: float) -> float:
    """Brute-force CDF of the max of independent exponentials at x."""
    result = 1.0
    for w in weights:
        result *= -np.expm1(-x * w)
    return float(result)


def random_relay(rng, snr_lo=3.0, snr_hi=15.0, eve_lo=-3.0, eve_hi=9.0) -> RelayLinkParams:
    sr_db, rd_db = rng.uniform(snr_lo, snr_hi, size=2)
    eve_db = rng.uniform(eve_lo, eve_hi)
    return RelayLinkParams.from_mean_snr_db(sr_db, rd_db, eve_db)


def random_config(rng, n, rate_lo=0.3, rate_hi=1.5, **kw) -> SystemConfig:
    """Moderate-SNR config whose outage stays away from 0 and 1, which keeps
    the Wald standard error meaningful in simulation comparisons."""
    relays = tuple(random_relay(rng, **kw) for _ in range(n))
    return SystemConfig(relays=relays, rate_rs=float(rng.uniform(rate_lo, rate_hi)))
