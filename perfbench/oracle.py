"""Independent reference values for the multi-relay closed forms.

The program evaluates TS, SS-RE, SS-RD and SS-SR as alternating
inclusion-exclusion sums.  This oracle never expands anything: relay k's
share of the outage is the positive product-form integral

    T_k = int_0^inf w_k e^{-w_k x} prod_{i != k} (1 - e^{-c_ki x}) g_k(x) dx

where x is relay k's selection metric (rate w_k), the product is the
probability that every competitor's metric falls below it, and g_k(x) is the
probability that relay k is in secrecy outage given its metric is x.

  TS      w = B_k, c_ki = B_i (min-of-hops rates), g = h_k
  SS-RE   w = B_k, c_ki = B_i a_k / a_i,            g = h_k
  SS-RD   w = rd_k, c_ki = rd_i, g = h_k averaged over the source-relay hop
  SS-SR   the same with the two hops swapped

with h_k(x) = 1 for x <= rho-1 and exp(-(a_k/rho)(x - (rho-1))) beyond.
Every factor is computed without cancellation (expm1 for the products, a
sum of positive terms for the averaged g).  Integration with
scipy.integrate.quad splits at rho-1 and then geometrically across the
eavesdropper, competitor and own-metric scales; the remainder beyond the
last break is rescaled by the competitors' total rate and given an absolute
tolerance scaled to the head.  Two integrations with different splits must
agree before a value is accepted.

Nothing is cached: the whole closedform-highsnr reference set takes about
3 s and is recomputed after every run's timed region.
"""

from __future__ import annotations

import math
import warnings

import mpmath
from scipy import integrate

# Relative agreement demanded between the two integrations.
SELF_AGREEMENT = 1e-11
_EPSREL = 1e-13


class OracleError(RuntimeError):
    """The two reference integrations disagree or failed to converge."""


def cell_rates(cell: dict) -> tuple[list[float], list[float], list[float], float]:
    """Exponential rates (sr, rd, eve) per relay and rho for one cell."""
    total = 10.0 ** (cell["snr_db"] / 10.0)
    sr = 1.0 / (cell["split"] * total)
    rd = 1.0 / ((1.0 - cell["split"]) * total)
    eve = [1.0 / 10.0 ** (e / 10.0) for e in cell["eve_db"]]
    n = cell["n"]
    return [sr] * n, [rd] * n, eve, 2.0 ** (2.0 * cell["rate"])


def single_branch(main_rate: float, eve_rate: float, rho: float) -> float:
    """Single-branch outage 1 - a e^{-B(rho-1)} / (B rho + a) at 50 digits."""
    with mpmath.workdps(50):
        b, a, r = mpmath.mpf(main_rate), mpmath.mpf(eve_rate), mpmath.mpf(rho)
        return float(1 - a * mpmath.exp(-b * (r - 1)) / (b * r + a))


def _h(q: float, d: float):
    def h(x: float) -> float:
        return 1.0 if x <= d else math.exp(-q * (x - d))
    return h


def _g_averaged(other: float, q: float, d: float):
    """Outage given the selected hop is y, averaged over the other hop
    (rate `other`): 1 for y <= d, else
    o/(o+q) + q/(o+q) (1 - e^{-o d}) + q/(o+q) e^{-o d} e^{-(o+q)(y-d)}."""
    lead = other / (other + q)
    share = q / (other + q)
    mid = share * -math.expm1(-other * d)
    edge = share * math.exp(-other * d)

    def g(y: float) -> float:
        if y <= d:
            return 1.0
        return lead + mid + edge * math.exp(-(other + q) * (y - d))
    return g


def _integrand(w: float, cs: list[float], g):
    def f(x: float) -> float:
        p = w * math.exp(-w * x)
        for c in cs:
            p *= -math.expm1(-c * x)
        return p * g(x)
    return f


def _quad(f, a: float, b: float, epsabs: float = 0.0) -> float:
    value, _ = integrate.quad(f, a, b, epsabs=epsabs, epsrel=_EPSREL, limit=200)
    return value


def _term(w: float, cs: list[float], g, q: float, d: float, ratio: float, offset: float) -> float:
    """T_k integrated piecewise: [0, d], geometric pieces from d up to well
    past every decay scale, then the rescaled remainder."""
    f = _integrand(w, cs, g)
    # Past rho-1 the integrand decays at least as fast as e^{-w x} (the
    # averaged g tends to a positive floor) and, for h, as e^{-q x}.
    lo = offset / max([q, w] + cs)
    hi = 96.0 / min(w, q)
    split = d * 0.5 * (1.0 + offset)
    parts = [_quad(f, 0.0, split), _quad(f, split, d)]
    edge = d
    step = lo
    while step < hi:
        parts.append(_quad(f, edge, d + step))
        edge = d + step
        step *= ratio
    head = math.fsum(parts)
    total_rate = w + sum(cs)

    def tail(t: float) -> float:
        return f(edge + t / total_rate) / total_rate

    parts.append(_quad(tail, 0.0, math.inf, epsabs=head * 1e-15))
    return math.fsum(parts)


def _scheme_terms(scheme: str, sr, rd, eve, rho, ratio: float, offset: float) -> list[float]:
    """T_k for every relay k under one metric-based scheme."""
    d = rho - 1.0
    n = len(eve)
    main = [s + r for s, r in zip(sr, rd)]
    terms = []
    for k in range(n):
        q = eve[k] / rho
        others = [i for i in range(n) if i != k]
        if scheme == "TS":
            w, cs, g = main[k], [main[i] for i in others], _h(q, d)
        elif scheme == "SS-RE":
            w, cs, g = main[k], [main[i] * eve[k] / eve[i] for i in others], _h(q, d)
        elif scheme == "SS-RD":
            w, cs, g = rd[k], [rd[i] for i in others], _g_averaged(sr[k], q, d)
        elif scheme == "SS-SR":
            w, cs, g = sr[k], [sr[i] for i in others], _g_averaged(rd[k], q, d)
        else:
            raise ValueError(f"no product-form oracle for {scheme}")
        terms.append(_term(w, cs, g, q, d, ratio, offset))
    return terms


def scheme_outage(scheme: str, sr, rd, eve, rho) -> float:
    """Outage of one scheme, accepted only when two differently split
    integrations agree to SELF_AGREEMENT."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        try:
            first = math.fsum(_scheme_terms(scheme, sr, rd, eve, rho, ratio=2.0, offset=0.25))
            second = math.fsum(_scheme_terms(scheme, sr, rd, eve, rho, ratio=3.0, offset=0.6))
        except integrate.IntegrationWarning as exc:
            raise OracleError(f"{scheme}: quadrature did not converge: {exc}") from exc
    if not first > 0.0 or abs(first - second) > SELF_AGREEMENT * first:
        raise OracleError(f"{scheme}: integrations disagree, {first!r} vs {second!r}")
    return first
