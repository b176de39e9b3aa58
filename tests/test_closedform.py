import math
import subprocess
import sys

import numpy as np
import pytest

from conftest import (
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
from relaysec import closedform
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
        rng = np.random.default_rng(13)
        for _ in range(10):
            cfg = random_config(rng, 3)
            assert outage_ss_sr(cfg).p == outage_ss_rd(cfg.swap_hops()).p


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
    """n relays near snr_db on both hops, eavesdroppers spread over 0-9 dB."""
    relays = tuple(
        RelayLinkParams.from_mean_snr_db(
            snr_db + 0.3 * i / (n - 1), snr_db - 0.2 * i / (n - 1), 9.0 * i / (n - 1)
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

    @pytest.mark.parametrize("n", [7, 8, 10])
    def test_selection_schemes_match_the_high_precision_subset_sum(self, n):
        # Relay counts past closedform._SUM_MAX_RELAYS.  A float64 subset sum
        # is about 1e-12 off at N = 10 (TS, 20 dB), so rel=1e-14 needs the
        # integral.
        for snr_db in (0.0, 10.0, 20.0, 30.0):
            for rate in (0.5, 2.0):
                cfg = spread_config(n, snr_db, rate)
                for scheme in (TS, SS_RE, SS_RD, SS_SR):
                    expected = mp_selection_outage(cfg, scheme.kind)
                    got = outage_for_scheme(cfg, scheme).p
                    assert got == pytest.approx(expected, rel=1e-14, abs=0.0), (
                        scheme.label, snr_db, rate)

    def test_package_imports_without_mpmath(self):
        code = "import sys, relaysec, relaysec.cli; sys.exit('mpmath' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code], timeout=60).returncode == 0
