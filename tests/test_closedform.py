import hashlib
import math
import subprocess
import sys
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest

from conftest import (
    _selection_rates,
    mp_fade,
    mp_selection_outage,
    quad_selection_outage,
    quad_single_outage,
    random_config,
)
from relaysec import (
    ALL_SCHEMES,
    SS_RD,
    SS_RE,
    SS_SR,
    TS,
    CancellationError,
    RelayLinkParams,
    SystemConfig,
    outage_for_scheme,
    outage_os,
    outage_ps,
    outage_ss_rd,
    outage_ss_re,
    outage_ss_sr,
    outage_ts,
    rho_of_rate,
    select_ps,
    simulate_outage,
    single,
    single_relay_outage,
    split_total_snr,
)
from relaysec import closedform, params
from relaysec.closedform import _as_probability
from relaysec.params import ConfigError


def iid_config(n, sr, rd, eve, rate=0.5):
    return SystemConfig(tuple(RelayLinkParams(sr, rd, eve) for _ in range(n)), rate)


class TestSingleRelay:
    def test_matches_quadrature_value(self):
        relay = RelayLinkParams(1.0, 1.0, 1.0)
        p = single_relay_outage(relay, 2.0).p
        assert p == pytest.approx(1.0 - math.exp(-2.0) / 5.0, rel=1e-14, abs=0.0)
        assert p == pytest.approx(quad_single_outage(relay, 2.0), abs=1e-10)

    def test_perfect_main_channel_drives_outage_to_zero(self):
        p = single_relay_outage(RelayLinkParams(1e-12, 1e-12, 1.0), 2.0).p
        assert 0.0 < p < 1e-11

    def test_huge_rate_forces_outage(self):
        # At rate 511 with main rate 4, B*rho overflows float64; the limit is 1.
        for hop_rate, rate in [(1.0, 20.0), (2.0, 511.0)]:
            rho = rho_of_rate(rate)
            p = single_relay_outage(RelayLinkParams(hop_rate, hop_rate, 1.0), rho).p
            assert p == pytest.approx(1.0, abs=1e-12), rate

    def test_rho_one_limit(self):
        relay = RelayLinkParams(0.7, 0.5, 2.0)
        p = single_relay_outage(relay, 1.0).p
        assert p == pytest.approx(relay.main_rate / (relay.main_rate + 2.0), rel=1e-14, abs=0.0)

    def test_rejects_rho_below_one(self):
        with pytest.raises(ConfigError):
            single_relay_outage(RelayLinkParams(1, 1, 1), 0.99)

    def test_quadrature_fuzz(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            relay = RelayLinkParams(*np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 3)))
            rho = rho_of_rate(float(rng.uniform(0.05, 4.0)))
            p = single_relay_outage(relay, rho).p
            assert p == pytest.approx(quad_single_outage(relay, rho), abs=1e-8)


class TestClampPolicy:
    def test_in_range_passes_through(self):
        r = _as_probability(0.25, single(1))
        assert (r.p, r.clamped) == (0.25, False)

    def test_small_excursions_clamp_with_flag(self):
        low = _as_probability(-5e-10, single(1))
        high = _as_probability(1.0 + 5e-10, single(1))
        assert (low.p, low.clamped) == (0.0, True)
        assert (high.p, high.clamped) == (1.0, True)

    def test_large_excursions_fail_loudly(self):
        with pytest.raises(CancellationError):
            _as_probability(-2e-9, single(1))
        with pytest.raises(CancellationError):
            _as_probability(1.0 + 2e-9, single(1))
        with pytest.raises(CancellationError):
            _as_probability(math.nan, single(1))


class TestBestSecrecySelection:
    def test_product_of_identical_relays(self):
        cfg = iid_config(2, 1.0, 1.0, 1.0)
        p1 = single_relay_outage(cfg.relays[0], cfg.rho).p
        assert outage_os(cfg).p == pytest.approx(p1**2, rel=1e-15, abs=0.0)

    def test_single_relay_collapse(self):
        cfg = iid_config(1, 0.8, 1.3, 0.6, rate=0.7)
        assert outage_os(cfg).p == pytest.approx(
            single_relay_outage(cfg.relays[0], cfg.rho).p, abs=1e-15
        )

    def test_product_identity_mixed_relays(self):
        cfg = SystemConfig(
            (
                RelayLinkParams(1.0, 2.0, 0.5),
                RelayLinkParams(2.0, 1.0, 1.0),
                RelayLinkParams(0.5, 0.5, 2.0),
            ),
            rate_rs=0.5,
        )
        product = 1.0
        for r in cfg.relays:
            product *= single_relay_outage(r, cfg.rho).p
        assert outage_os(cfg).p == pytest.approx(product, rel=1e-14, abs=0.0)


class TestStrongestMainChannelSelection:
    def test_single_relay_collapse(self):
        cfg = iid_config(1, 1.1, 0.4, 0.9, rate=0.8)
        expected = single_relay_outage(cfg.relays[0], cfg.rho).p
        assert outage_ts(cfg).p == pytest.approx(expected, abs=1e-12)

    def test_dead_branch_limit(self):
        # A competitor with a hopeless main channel is almost never selected,
        # so the outage approaches the surviving relay's single-branch value.
        strong = RelayLinkParams(0.5, 0.5, 1.0)
        dead = RelayLinkParams(5e5, 5e5, 1.0)
        cfg = SystemConfig((strong, dead), rate_rs=0.5)
        expected = single_relay_outage(strong, cfg.rho).p
        assert outage_ts(cfg).p == pytest.approx(expected, rel=1e-4, abs=0.0)


class TestEavesdropperWeightedSelection:
    def test_single_relay_collapse(self):
        cfg = iid_config(1, 0.4, 0.9, 1.7, rate=0.3)
        expected = single_relay_outage(cfg.relays[0], cfg.rho).p
        assert outage_ss_re(cfg).p == pytest.approx(expected, abs=1e-12)

    def test_equal_eavesdropper_rates_reduce_to_main_channel_rule(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 4):
            relays = tuple(
                RelayLinkParams(float(rng.uniform(0.1, 2)), float(rng.uniform(0.1, 2)), 0.8)
                for _ in range(n)
            )
            cfg = SystemConfig(relays, rate_rs=float(rng.uniform(0.2, 1.5)))
            assert outage_ss_re(cfg).p == pytest.approx(outage_ts(cfg).p, abs=1e-10)


class TestSingleHopSelections:
    def test_single_relay_collapse(self):
        cfg = iid_config(1, 0.6, 1.4, 0.5, rate=1.2)
        expected = single_relay_outage(cfg.relays[0], cfg.rho).p
        assert outage_ss_rd(cfg).p == pytest.approx(expected, abs=1e-12)
        assert outage_ss_sr(cfg).p == pytest.approx(expected, abs=1e-12)

    def test_symmetric_hops_make_the_two_rules_agree(self):
        rng = np.random.default_rng(12)
        for _ in range(10):
            relays = tuple(
                RelayLinkParams(r, r, float(rng.uniform(0.2, 3)))
                for r in rng.uniform(0.1, 2.0, size=2)
            )
            cfg = SystemConfig(relays, rate_rs=0.9)
            assert outage_ss_rd(cfg).p == pytest.approx(outage_ss_sr(cfg).p, abs=1e-12)

    def test_hop_swap_identity(self):
        # SS-SR is SS-RD's rule on the other hop, so swapping every relay's
        # hops swaps the two schemes' values.
        rng = np.random.default_rng(13)
        for _ in range(10):
            cfg = random_config(rng, 3)
            swapped = SystemConfig(
                tuple(RelayLinkParams(r.rd_rate, r.sr_rate, r.eve_rate) for r in cfg.relays),
                cfg.rate_rs,
            )
            assert outage_ss_sr(cfg).p == outage_ss_rd(swapped).p
            assert outage_ss_rd(cfg).p == outage_ss_sr(swapped).p


class TestStatisticsOnlySelection:
    def test_dominant_relay_wins(self):
        cfg = SystemConfig(
            (RelayLinkParams(0.2, 0.2, 2.0), RelayLinkParams(1.0, 1.0, 0.5)), 0.5
        )
        assert select_ps(cfg) == 1

    def test_tie_breaks_to_lowest_index(self):
        cfg = iid_config(3, 1.0, 1.0, 1.0)
        assert select_ps(cfg) == 1

    def test_smaller_main_rate_wins(self):
        cfg = SystemConfig(
            (RelayLinkParams(1.0, 1.0, 1.0), RelayLinkParams(0.5, 0.5, 1.0)), 0.5
        )
        assert select_ps(cfg) == 2

    def test_outage_is_minimum_single_branch_value(self):
        rng = np.random.default_rng(14)
        for _ in range(20):
            cfg = random_config(rng, 4)
            best = min(single_relay_outage(r, cfg.rho).p for r in cfg.relays)
            assert outage_ps(cfg).p == best


class TestSchemeProperties:
    def test_values_stay_in_unit_interval_under_fuzz(self):
        rng = np.random.default_rng(21)
        for _ in range(120):
            n = int(rng.integers(1, 7))
            relays = tuple(
                RelayLinkParams(*np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 3)))
                for _ in range(n)
            )
            cfg = SystemConfig(relays, rate_rs=float(rng.uniform(0.05, 4.0)))
            for scheme in ALL_SCHEMES:
                p = outage_for_scheme(cfg, scheme).p
                assert 0.0 <= p <= 1.0

    def test_best_secrecy_selection_dominates(self):
        rng = np.random.default_rng(22)
        for _ in range(60):
            cfg = random_config(rng, int(rng.integers(2, 5)))
            p_os = outage_os(cfg).p
            for scheme in ALL_SCHEMES[1:]:
                assert p_os <= outage_for_scheme(cfg, scheme).p + 1e-10

    def test_all_schemes_collapse_to_single_branch_at_one_relay(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            cfg = random_config(rng, 1)
            expected = single_relay_outage(cfg.relays[0], cfg.rho).p
            for scheme in list(ALL_SCHEMES) + [single(1)]:
                assert outage_for_scheme(cfg, scheme).p == pytest.approx(expected, abs=1e-12)


class TestSimulationSpotChecks:
    """Pin a few named parameterizations against the simulator at 1e6 trials."""

    @staticmethod
    def _fig5_config(rate_rs, split):
        total = 10 ** (20.0 / 10.0)
        sr, rd = split_total_snr(total, split)
        eves = tuple(1.0 / 10 ** (db / 10.0) for db in (0.0, 3.0, 6.0, 9.0))
        return SystemConfig(
            tuple(RelayLinkParams(sr, rd, e) for e in eves), rate_rs
        )

    def test_eavesdropper_weighted_rule_three_relays(self):
        relays = (
            RelayLinkParams(0.9, 0.5, 1.0),
            RelayLinkParams(0.35, 1.1, 0.5),
            RelayLinkParams(1.6, 0.4, 0.25),
        )
        cfg = SystemConfig(relays, rate_rs=0.5)
        est = simulate_outage(cfg, SS_RE, 1_000_000, seed=61)
        assert abs(outage_ss_re(cfg).p - est.p_hat) <= 3 * est.std_err

    def test_destination_hop_rule_four_relays(self):
        cfg = self._fig5_config(1.0, 0.7)
        est = simulate_outage(cfg, SS_RD, 1_000_000, seed=62)
        assert abs(outage_ss_rd(cfg).p - est.p_hat) <= 3 * est.std_err

    def test_source_hop_rule_four_relays(self):
        cfg = self._fig5_config(0.1, 0.3)
        est = simulate_outage(cfg, SS_SR, 1_000_000, seed=63)
        assert abs(outage_ss_sr(cfg).p - est.p_hat) <= 3 * est.std_err

    def test_statistics_only_rule_four_relays(self):
        cfg = self._fig5_config(1.0, 0.7)
        per_relay = [single_relay_outage(r, cfg.rho).p for r in cfg.relays]
        assert outage_ps(cfg).p == min(per_relay)


class TestMonotonicity:
    """Grid checks: outage worsens with the target rate and the eavesdropper's
    mean SNR, improves with the main-channel mean SNRs.  The main-channel and
    eavesdropper grids scale all relays together; the main-channel grids use a
    shared eavesdropper rate so that better links cannot shift selection mass
    onto a more exposed relay."""

    @staticmethod
    def _values(cfg_builder, grid):
        return {
            scheme.label: [outage_for_scheme(cfg_builder(g), scheme).p for g in grid]
            for scheme in ALL_SCHEMES
        }

    @staticmethod
    def _assert_monotone(values, increasing, slack=1e-12):
        for label, seq in values.items():
            pairs = zip(seq, seq[1:])
            if increasing:
                ok = all(b >= a - slack for a, b in pairs)
            else:
                ok = all(b <= a + slack for a, b in pairs)
            assert ok, f"{label}: {seq}"

    def test_nondecreasing_in_target_rate(self):
        relays = (
            RelayLinkParams(0.8, 0.3, 1.2),
            RelayLinkParams(0.4, 0.9, 0.6),
            RelayLinkParams(1.5, 0.7, 2.5),
        )
        grid = np.linspace(0.1, 3.0, 12)
        values = self._values(lambda r: SystemConfig(relays, rate_rs=float(r)), grid)
        self._assert_monotone(values, increasing=True)

    @pytest.mark.parametrize("hop", ["sr", "rd"])
    def test_nonincreasing_in_main_channel_snr(self, hop):
        base = [(0.9, 0.5), (0.4, 1.1), (1.3, 0.8)]
        grid = np.exp(np.linspace(np.log(0.2), np.log(50.0), 12))

        def build(snr_scale):
            relays = []
            for sr, rd in base:
                if hop == "sr":
                    relays.append(RelayLinkParams(sr / snr_scale, rd, 0.9))
                else:
                    relays.append(RelayLinkParams(sr, rd / snr_scale, 0.9))
            return SystemConfig(tuple(relays), rate_rs=0.6)

        self._assert_monotone(self._values(build, grid), increasing=False)

    def test_nondecreasing_in_eavesdropper_snr(self):
        base = (
            RelayLinkParams(0.9, 0.5, 1.4),
            RelayLinkParams(0.4, 1.1, 0.7),
            RelayLinkParams(1.3, 0.8, 2.2),
        )
        grid = np.exp(np.linspace(np.log(0.1), np.log(20.0), 12))

        def build(snr_scale):
            relays = tuple(
                RelayLinkParams(r.sr_rate, r.rd_rate, r.eve_rate / snr_scale) for r in base
            )
            return SystemConfig(relays, rate_rs=0.6)

        self._assert_monotone(self._values(build, grid), increasing=True)


def spread_config(n, snr_db, rate=0.5):
    """n relays near snr_db on both hops, eavesdroppers spread over 0-9 dB
    (a lone relay sits at snr_db, its eavesdropper at 0 dB)."""
    span = max(n - 1, 1)
    relays = tuple(
        RelayLinkParams.from_mean_snr_db(
            snr_db + 0.3 * i / span, snr_db - 0.2 * i / span, 9.0 * i / span
        )
        for i in range(n)
    )
    return SystemConfig(relays, rate)


class TestCancellationRegime:
    """Multi-relay sums where the alternating subset expansion cancels."""

    @pytest.mark.parametrize("n", [4, 8, 10, 12, 24, 32])
    def test_selection_schemes_match_the_product_form_oracle(self, n):
        for snr_db in (40.0, 60.0, 80.0):
            cfg = spread_config(n, snr_db)
            for scheme in (TS, SS_RE, SS_RD, SS_SR):
                expected = quad_selection_outage(cfg, scheme.kind)
                got = outage_for_scheme(cfg, scheme).p
                assert got == pytest.approx(expected, rel=1e-9, abs=0.0), (scheme.label, snr_db)

    def test_integral_matches_the_float64_sum_on_every_term(self, monkeypatch):
        rng = np.random.default_rng(11)
        configs = [random_config(rng, int(rng.integers(2, 7))) for _ in range(40)]
        # rho == 1 exactly (no head interval) and B*(rho-1) >> 1.
        configs += [SystemConfig(c.relays, rate) for c in configs[:10] for rate in (1e-17, 20.0)]
        assert configs[-2].rho == 1.0
        # Single-hop rules at high SNR, where 1-K (K close to 1) must not be
        # formed by subtraction.
        configs.append(spread_config(4, 80.0))
        schemes = (TS, SS_RE, SS_RD, SS_SR)
        float64 = [[outage_for_scheme(cfg, s).p for s in schemes] for cfg in configs]
        monkeypatch.setattr(closedform, "_CANCEL_GUARD", math.inf)
        for cfg, row in zip(configs, float64):
            for scheme, p in zip(schemes, row):
                assert outage_for_scheme(cfg, scheme).p == pytest.approx(p, rel=1e-11, abs=0.0)

    @pytest.mark.parametrize("n", [6, 7, 8, 10])
    def test_selection_schemes_match_the_high_precision_subset_sum(self, n):
        # Relay counts past closedform._SUM_MAX_RELAYS.  A float64 subset sum
        # is about 1e-12 off at N = 10 (TS, 20 dB) and 5.3e-13 at N = 6
        # (SS-RE, 30 dB, rate 2.0), so rel=1e-14 needs the integral.
        for snr_db in (0.0, 10.0, 20.0, 30.0):
            for rate in (0.5, 2.0):
                cfg = spread_config(n, snr_db, rate)
                for scheme in (TS, SS_RE, SS_RD, SS_SR):
                    expected = mp_selection_outage(cfg, scheme.kind)
                    got = outage_for_scheme(cfg, scheme).p
                    assert got == pytest.approx(expected, rel=1e-14, abs=0.0), (
                        scheme.label, snr_db, rate)

    def test_a_cancelling_relay_integrates_the_whole_cell(self):
        # One relay's subset sum trips the guard here; summing the other four
        # left the cell 3.0e-11 off.
        cfg = spread_config(5, 30.0, 0.5)
        expected = mp_selection_outage(cfg, "TS")
        assert outage_ts(cfg).p == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_package_imports_without_mpmath(self):
        # mpmath is a test oracle only.  hashlib (OpenSSL, about 3.6 MB) seeds
        # simulated cells, concurrent.futures runs a simulation's blocks and
        # importlib.metadata would only read a version, so none belongs in an
        # import or a closed-form-only sweep; nor does numpy.polynomial, whose
        # leggauss also starts LAPACK (1.4 MB).
        code = "\n".join([
            "import sys, relaysec, relaysec.cli",
            "lazy = ('mpmath', 'hashlib', 'concurrent.futures', 'importlib.metadata',",
            "        'numpy.polynomial')",
            "loaded = [m for m in lazy if m in sys.modules]",
            "assert not loaded, loaded",
            "spec = relaysec.SweepSpec((0.0, 40.0), (0.5,), relaysec.ALL_SCHEMES, n_relays=8)",
            "assert len(relaysec.run_sweep(spec)) == 12",
            "loaded = [m for m in ('hashlib', 'concurrent.futures') if m in sys.modules]",
            "assert not loaded, loaded",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def reference_panels(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on each interval between `edges`."""
    half = np.diff(edges)[:, None] / 2.0
    return (edges[:-1, None] + half * (1.0 + _GL_NODES)).ravel(), (half * _GL_WEIGHTS).ravel()


def reference_product_integral(b_k: float, a_k: float, s_k: float, c: np.ndarray, rho: float) -> float:
    """One relay's T_k on its own metric axis t, on panels of its own: halving
    from rho-1 towards 0, then doubling away from rho-1 at least 90/min(s_k, c)
    past it.  (A tail of only 90/s_k can stop where the competitor CDF still
    grows as a power of t: 1.1e-13 low on one N = 12 SS-RD relay whose
    competitors' rates go down to 3.8e-8 against s_k = 5.7e-3.)"""
    d = rho - 1.0
    g = b_k - s_k
    q = a_k / rho
    delta = g + q
    k_far = math.exp(-g * d) * q / delta
    floor = (g - q * math.expm1(-g * d)) / delta
    fast = max(float(c.max()), s_k)
    n_head = max(0, math.frexp(d)[1] + math.frexp(fast)[1])
    step = 1.0 / max(fast, delta)
    n_tail = math.frexp(90.0 / min(s_k, float(c.min())))[1] - math.frexp(step)[1] + 1
    head_t, head_w = reference_panels(np.concatenate(([0.0], np.ldexp(d, -np.arange(n_head, -1, -1)))))
    tail_x, tail_w = reference_panels(np.concatenate(([0.0], np.ldexp(step, np.arange(n_tail + 1)))))
    t = np.concatenate((head_t, d + tail_x))
    w = np.concatenate((head_w, tail_w * (floor + k_far * np.exp(-delta * tail_x))))
    # Near rate_rs 512, s_k*t and t*c overflow to inf; the factors e^{-inf} = 0
    # and 1 - e^{-inf} = 1 are the intended limits.
    with np.errstate(over="ignore"):
        f = s_k * np.exp(-s_k * t) * (-np.expm1(-np.multiply.outer(t, c))).prod(axis=1)
    return float(np.sum(w * f))


def relay_jobs(cfg, kind):
    """Every relay's (b_k, a_k, s_k, competitor rates) under one scheme, as
    the conftest oracles compute the rates."""
    return [(relay.main_rate, relay.eve_rate, *_selection_rates(cfg, kind, k))
            for k, relay in enumerate(cfg.relays)]


def integrated_cells(monkeypatch, configs):
    """Each (kind, cfg, T) that closedform._cell_integrals returns while the
    TS, SS-RE, SS-RD and SS-SR evaluators run on `configs`."""
    cells = []
    integrate = closedform._cell_integrals

    def record(cfg, *rates):
        got = integrate(cfg, *rates)
        cells.append((kind, cfg, got))
        return got

    with monkeypatch.context() as patch:
        patch.setattr(closedform, "_cell_integrals", record)
        for cfg in configs:
            for scheme in (TS, SS_RE, SS_RD, SS_SR):
                kind = scheme.kind
                outage_for_scheme(cfg, scheme)
    return cells


def mp_fixed_outage(cfg: SystemConfig, scheme, dps: int) -> float:
    """OS, PS or a pinned relay from each branch's W(B_k) in `dps` digits."""
    with mpmath.workdps(dps):
        rho = mpmath.mpf(cfg.rho)
        branches = [
            1 - a * mp_fade(b * (rho - 1)) / (b * rho + a)
            for b, a in ((mpmath.mpf(r.main_rate), mpmath.mpf(r.eve_rate)) for r in cfg.relays)
        ]
        if scheme.kind == "OS":
            return float(mpmath.fprod(branches))
        if scheme.kind == "PS":
            return float(min(branches))
        return float(branches[scheme.relay - 1])


def mp_outage(cfg: SystemConfig, scheme) -> float:
    """Any scheme's outage in 700 digits, enough for the subset sums at the
    ends of the range, which cancel about 300 decades."""
    if scheme.kind in ("OS", "PS", "SINGLE"):
        return mp_fixed_outage(cfg, scheme, dps=700)
    return mp_selection_outage(cfg, scheme.kind, dps=700)


# Relays outside the stated range: configs that once hung, exited 3 where the
# outage is 1, read a silent 0.0 or laid out about a thousand panels, and
# SS-RE metric rates b/a past float64.
_RAMP = [1.0 + 0.1 * k for k in range(6)]
EDGE_RELAYS = {
    # With rate_rs 1e-300 (rho = 1), and main rates past the largest double.
    "rho-one-overflowed-delta": lambda: [RelayLinkParams(8e307 * m, 8e307, 9e307) for m in _RAMP],
    "overflowed-kernel": lambda: [RelayLinkParams(5e307 * m, 5e307, 1e308) for m in _RAMP],
    "hops-near-1e-200": lambda: [RelayLinkParams(1e-200 * sr, 1e-200 * rd, e) for sr, rd, e in
                                 zip((1, 2, 3, 100), (2, 3, 100, 1), np.geomspace(1e-3, 30, 4))],
    "hops-at-3000-dB": lambda: [RelayLinkParams.from_mean_snr_db(3000.0, 3000.0, 0.0)],
    "metric-rate-overflow": lambda: [RelayLinkParams.from_mean_snr_db(-3000.0, -3000.0, 3000.0)],
    "metric-rate-underflow": lambda: [RelayLinkParams.from_mean_snr_db(3000.0, 3000.0, -3000.0)],
}


class TestStatedRange:
    """Every link's mean SNR lies within ±300 dB.  What lies outside is
    refused where it is built; inside, every scheme meets the 700-digit
    oracle, with hops at either end of the range, where 746/min(w) and the
    main rates are at their extremes, at rho = 1, at rho - 1 near 4.5e307
    and between."""

    @pytest.mark.parametrize("build", EDGE_RELAYS.values(), ids=EDGE_RELAYS)
    def test_edge_configs_are_refused_when_built(self, build):
        with pytest.raises(ConfigError, match="within ±300 dB"):
            build()

    @pytest.mark.parametrize("rate", [0.5, 2.0, 1e-17, 300.0, 511.0])
    @pytest.mark.parametrize("end", ["high-snr", "low-snr"])
    @pytest.mark.parametrize("eve_order", [1, -1], ids=["eve-ascending", "eve-descending"])
    def test_every_scheme_matches_the_oracle(self, rate, end, eve_order):
        hops = [params._MIN_RATE * m if end == "high-snr" else params._MAX_RATE / m
                for m in (1.0, 2.0, 3.0, 100.0)]
        eves = np.geomspace(params._MIN_RATE, params._MAX_RATE, 4)[::eve_order].tolist()
        cfg = SystemConfig(tuple(RelayLinkParams(h, h, e) for h, e in zip(hops, eves)), rate)
        for scheme in ALL_SCHEMES + (single(4),):
            # Four relays are summed in float64 unless a sum cancels, which
            # can lose about 1e-12 relative (README's numerical notes).
            got = outage_for_scheme(cfg, scheme).p
            assert got == pytest.approx(mp_outage(cfg, scheme), rel=1e-11, abs=0.0), scheme.label

    def test_seeded_fuzz_over_the_whole_range(self):
        # Links uniform over ±300 dB, 30% of them exactly at an end; rho = 1,
        # rho - 1 near 4.5e307 and rates in between.
        rng = np.random.default_rng(2024)
        for _ in range(250):
            n = int(rng.integers(1, 7))
            db = rng.uniform(-300.0, 300.0, size=(n, 3))
            ends = rng.random((n, 3)) < 0.3
            db[ends] = rng.choice([-300.0, 300.0], size=int(ends.sum()))
            rate = [1e-17, 511.0, float(np.exp(rng.uniform(np.log(0.01), np.log(511.0))))][
                int(rng.integers(3))]
            cfg = SystemConfig(tuple(RelayLinkParams.from_mean_snr_db(*row) for row in db), rate)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                for scheme in ALL_SCHEMES:
                    assert outage_for_scheme(cfg, scheme).p == pytest.approx(
                        mp_outage(cfg, scheme), rel=1e-10, abs=0.0), (scheme.label, cfg)

    @pytest.mark.parametrize("eve_db", [250.0, 300.0])
    def test_rate_511_with_strong_eavesdroppers_reads_one_without_warning(self, eve_db):
        # eve_rate/rho underflows to 0 where TS and SS-RE have g = 0, so that
        # relay's unread k_far and floor are 0/0.
        relays = tuple(RelayLinkParams.from_mean_snr_db(10.0 + i, 10.0, eve_db) for i in range(6))
        cfg = SystemConfig(relays, 511.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scheme in ALL_SCHEMES:
                assert outage_for_scheme(cfg, scheme).p == 1.0, scheme.label


class TestBatchedIntegralReference:
    """closedform._cell_integrals, one grid per cell, against
    reference_product_integral, one grid per relay, to 1e-14 relative."""

    @staticmethod
    def assert_matches_relay_by_relay(cells):
        assert cells
        for kind, cfg, got in cells:
            assert len(got) == cfg.n_relays
            for (b_k, a_k, s_k, c), value in zip(relay_jobs(cfg, kind), got):
                expected = reference_product_integral(b_k, a_k, s_k, np.asarray(c), cfg.rho)
                assert value == pytest.approx(expected, rel=1e-14, abs=0.0), (kind, cfg)

    @pytest.mark.parametrize("n", range(2, 33))
    def test_random_configs(self, n, monkeypatch):
        rng = np.random.default_rng(700 + n)
        configs = [random_config(rng, n, snr_lo=-5.0, snr_hi=80.0) for _ in range(2)]
        # An infinite guard integrates every cell, summed or not.
        monkeypatch.setattr(closedform, "_CANCEL_GUARD", math.inf)
        self.assert_matches_relay_by_relay(integrated_cells(monkeypatch, configs))

    def test_one_relay_is_the_single_branch_kernel(self):
        # No competitor: the reference has no rate to take a maximum over.
        # A lone relay is selected whatever its metric.
        rng = np.random.default_rng(3)
        for _ in range(20):
            cfg = random_config(rng, 1, snr_lo=-5.0, snr_hi=80.0)
            relay = cfg.relays[0]
            expected = closedform._kernel(relay.main_rate, relay.eve_rate, cfg.rho)
            for s_k in (relay.main_rate, relay.rd_rate, relay.sr_rate):
                (value,) = closedform._cell_integrals(cfg, [s_k], [s_k], [1.0])
                assert value == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_gauss_legendre_rule(self):
        nodes, weights = closedform._GL_NODES, closedform._GL_WEIGHTS
        ref_nodes, ref_weights = np.polynomial.legendre.leggauss(16)
        assert np.abs(nodes - ref_nodes).max() <= 1e-15
        assert np.abs(weights / ref_weights - 1.0).max() <= 1e-14
        # Exact for every polynomial of degree up to 31.
        for degree in range(32):
            exact = 2.0 / (degree + 1) if degree % 2 == 0 else 0.0
            assert math.fsum(weights * nodes**degree) == pytest.approx(exact, rel=1e-15, abs=1e-16)

    def test_rho_one_and_rate_511(self, monkeypatch):
        rng = np.random.default_rng(17)
        configs = []
        for n in (2, 7, 12):
            # Hops at -10 to -4 dB put every main rate above 4.
            base = random_config(rng, n, snr_lo=-10.0, snr_hi=-4.0)
            # rho == 1 exactly puts every kink at 0; at rate 511, rho - 1 is
            # near 4.5e307, so s_k*t overflows to inf.
            for rate in (1e-17, 511.0):
                cfg = SystemConfig(base.relays, rate)
                if rate < 1.0:
                    assert cfg.rho == 1.0
                else:
                    assert min(r.main_rate for r in cfg.relays) * (cfg.rho - 1.0) * 4.0 == math.inf
                configs.append(cfg)
        monkeypatch.setattr(closedform, "_CANCEL_GUARD", math.inf)
        self.assert_matches_relay_by_relay(integrated_cells(monkeypatch, configs))

    def test_block_memory_stays_bounded_at_many_relays(self):
        # One 96-relay cell holds a few 96-row arrays over its shared nodes.
        cfg = spread_config(96, 40.0)
        tracemalloc.start()
        try:
            outage_ts(cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2**20

    def test_no_panels_past_underflow_at_rate_511(self):
        # rho - 1 near 4.5e307 puts every kink far past 746/min(w), where
        # each e^{-w_i m} is exactly 0: the grid ends there.
        cfg = SystemConfig((RelayLinkParams.from_mean_snr_db(-8.0, -8.0, -8.0),) * 32, 511.0)
        tracemalloc.start()
        try:
            p = outage_ts(cfg).p
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert p == pytest.approx(1.0, rel=0.0, abs=1e-15)
        assert peak < 2 * 2**20

    def test_every_batch_the_evaluators_integrate(self, monkeypatch):
        # Cells of at most _SUM_MAX_RELAYS relays at high SNR, where a relay
        # whose subset sum cancels hands the whole cell to the integral, then
        # cells past it, which always integrate.
        configs = [spread_config(n, snr_db, rate)
                   for n in (2, 3, 4, 5, 6, 8) for snr_db in (20.0, 40.0, 60.0, 80.0)
                   for rate in (0.5, 2.0)]
        cells = integrated_cells(monkeypatch, configs)
        sizes = {cfg.n_relays for _, cfg, _ in cells}
        assert {2, 5, 6, 8} <= sizes
        assert len(cells) < 4 * len(configs)
        self.assert_matches_relay_by_relay(cells)


def rho_one_and_rate_511_configs() -> list[SystemConfig]:
    """TestBatchedIntegralReference.test_rho_one_and_rate_511's configs."""
    rng = np.random.default_rng(17)
    configs = []
    for n in (2, 7, 12):
        base = random_config(rng, n, snr_lo=-10.0, snr_hi=-4.0)
        configs += [SystemConfig(base.relays, rate) for rate in (1e-17, 511.0)]
    return configs


class TestCellIntegralBits:
    """sha256 of every T_k that _cell_integrals returns while TS, SS-RE, SS-RD
    and SS-SR integrate a fixed set of cells (an infinite guard integrates the
    summed ones too), recorded before its body was rewritten for speed.  The
    fsum'd p_closed digests elsewhere can hide a moved T_k bit; this cannot."""

    CASES = {
        "spread-n1-10-0-80dB": (
            lambda: [spread_config(n, float(db)) for n in range(1, 11) for db in range(0, 81, 10)],
            360,
            "6483fd21fa8e26ee7bb4fe1e018e7b43be46ee9f9e523685b41e26ca6dee3803",
        ),
        "rho-one-and-rate-511": (rho_one_and_rate_511_configs, 24,
                                 "310d8e546c45784961551930248fb4e55f63338ca3440108015e4a34b137dc4a"),
        # SS-RE's kinks eve_rate_k*(rho-1) are distinct over 0-9 dB eavesdroppers.
        "n32-distinct-kinks": (lambda: [spread_config(32, 40.0)], 4,
                               "0ca23b9a9a561551620faad1f2a1133c74b41aa21cfb57cf19be4fa9e9c9c6bf"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_digest(self, case, monkeypatch):
        build, count, expected = self.CASES[case]
        monkeypatch.setattr(closedform, "_CANCEL_GUARD", math.inf)
        cells = integrated_cells(monkeypatch, build())
        assert len(cells) == count
        digest = hashlib.sha256(b"".join(got.tobytes() for _, _, got in cells)).hexdigest()
        assert digest == expected
