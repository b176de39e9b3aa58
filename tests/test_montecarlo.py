import math

import numpy as np
import pytest

from conftest import random_config
from relaysec import (
    ALL_SCHEMES,
    OS,
    PS,
    SS_RD,
    SS_RE,
    SS_SR,
    TS,
    ChannelRealization,
    RelayLinkParams,
    SystemConfig,
    apply_selection,
    outage_flags,
    sample_realization,
    secrecy_rate,
    select_ps,
    simulate_outage,
    single,
    single_relay_outage,
)
from relaysec.montecarlo import block_generator
from relaysec.params import ConfigError


def make_real(sr, rd, eve):
    return ChannelRealization(tuple(sr), tuple(rd), tuple(eve))


class TestSampling:
    def test_degenerate_link_is_near_zero(self):
        cfg = SystemConfig((RelayLinkParams(1e12, 1.0, 1.0),), 0.5)
        real = sample_realization(cfg, block_generator(0, 0))
        assert real.gamma_sr[0] < 1e-10

    def test_empirical_mean_matches_distribution(self):
        cfg = SystemConfig((RelayLinkParams(2.0, 1.0, 1.0),), 0.5)
        rng = block_generator(123, 0)
        draws = np.array([sample_realization(cfg, rng).gamma_sr[0] for _ in range(10_000)])
        # mean 1/2, stderr (1/2)/sqrt(n)
        assert abs(draws.mean() - 0.5) < 3 * 0.5 / math.sqrt(10_000)

    def test_fixed_seed_reproduces_the_sequence(self):
        cfg = random_config(np.random.default_rng(5), 3)
        a = [sample_realization(cfg, block_generator(77, 0)) for _ in range(1)][0]
        b = [sample_realization(cfg, block_generator(77, 0)) for _ in range(1)][0]
        assert a == b

    def test_rejects_bad_seed(self):
        with pytest.raises(ConfigError):
            block_generator(-1, 0)
        with pytest.raises(ConfigError):
            block_generator(1 << 64, 0)


class TestSecrecyRate:
    def test_clean_channel(self):
        assert secrecy_rate(3.0, 0.0) == 1.0

    def test_equal_links_give_zero(self):
        assert secrecy_rate(7.7, 7.7) == 0.0

    def test_negative_rate_clips_to_zero(self):
        assert secrecy_rate(0.0, 5.0) == 0.0


class TestApplySelection:
    cfg2 = SystemConfig((RelayLinkParams(1, 1, 1), RelayLinkParams(1, 1, 1)), 0.5)

    def test_dominant_main_channel_wins_under_ts(self):
        real = make_real([5.0, 1.0], [5.0, 1.0], [0.3, 0.3])
        assert apply_selection(TS, self.cfg2, real) == 1

    def test_identical_relays_tie_break_to_lowest(self):
        real = make_real([2.0, 2.0], [3.0, 3.0], [1.0, 1.0])
        for scheme in ALL_SCHEMES:
            assert apply_selection(scheme, self.cfg2, real) == 1

    def test_best_secrecy_rate_wins_under_os(self):
        real = make_real([10.0, 5.0], [10.0, 5.0], [9.0, 0.0])
        assert apply_selection(OS, self.cfg2, real) == 2

    def test_zero_rate_branches_tie_under_os(self):
        # SNR ratios 1.1/10 and 1.5/6 both clip to a zero secrecy rate, so the
        # tie breaks to relay 1 although relay 2 has the larger ratio.
        real = make_real([0.1, 0.5], [0.1, 0.5], [9.0, 5.0])
        assert apply_selection(OS, self.cfg2, real) == 1

    def test_hop_specific_rules(self):
        real = make_real([4.0, 1.0], [1.0, 6.0], [1.0, 1.0])
        assert apply_selection(SS_SR, self.cfg2, real) == 1
        assert apply_selection(SS_RD, self.cfg2, real) == 2

    def test_eavesdropper_weighted_rule(self):
        cfg = SystemConfig(
            (RelayLinkParams(1, 1, 0.1), RelayLinkParams(1, 1, 10.0)), 0.5
        )
        real = make_real([3.0, 1.0], [3.0, 1.0], [1.0, 1.0])
        # metrics: 3 * 0.1 = 0.3 against 1 * 10, the exposed-but-weighted one
        assert apply_selection(SS_RE, cfg, real) == 2

    def test_statistics_only_rule_ignores_the_realization(self):
        cfg = SystemConfig(
            (RelayLinkParams(1, 1, 1), RelayLinkParams(0.2, 0.2, 1)), 0.5
        )
        r1 = make_real([9.0, 0.1], [9.0, 0.1], [0.1, 9.0])
        r2 = make_real([0.1, 9.0], [0.1, 9.0], [9.0, 0.1])
        assert apply_selection(PS, cfg, r1) == apply_selection(PS, cfg, r2) == 2

    def test_pinned_relay(self):
        real = make_real([1.0, 9.0], [1.0, 9.0], [1.0, 1.0])
        assert apply_selection(single(1), self.cfg2, real) == 1

    def test_arity_mismatch_rejected(self):
        real = make_real([1.0], [1.0], [1.0])
        with pytest.raises(ConfigError):
            apply_selection(TS, self.cfg2, real)


class TestSimulateOutage:
    def test_certain_outage_at_huge_rate(self):
        cfg = SystemConfig((RelayLinkParams(1, 1, 1),), rate_rs=20.0)
        est = simulate_outage(cfg, single(1), 10_000, 1)
        assert est.p_hat == 1.0

    def test_near_perfect_main_channel(self):
        cfg = SystemConfig((RelayLinkParams(1e-12, 1e-12, 1.0),), rate_rs=0.5)
        est = simulate_outage(cfg, single(1), 100_000, 2)
        assert est.p_hat < 0.001

    def test_matches_closed_form_single_relay(self):
        cfg = SystemConfig((RelayLinkParams(1, 1, 1),), rate_rs=0.5)
        est = simulate_outage(cfg, single(1), 1_000_000, 3)
        expected = single_relay_outage(cfg.relays[0], cfg.rho).p
        assert abs(est.p_hat - expected) <= 3 * est.std_err

    def test_estimate_bookkeeping(self):
        cfg = random_config(np.random.default_rng(8), 2)
        est = simulate_outage(cfg, TS, 12_345, 99)
        assert est.trials == 12_345
        assert est.seed == 99
        assert est.p_hat * est.trials == round(est.p_hat * est.trials)
        assert est.std_err == pytest.approx(
            math.sqrt(est.p_hat * (1 - est.p_hat) / est.trials)
        )

    def test_bit_identical_for_identical_inputs(self):
        cfg = random_config(np.random.default_rng(9), 3)
        a = simulate_outage(cfg, OS, 50_000, 4242)
        b = simulate_outage(cfg, OS, 50_000, 4242)
        assert a == b

    def test_flags_agree_with_the_estimate(self):
        cfg = random_config(np.random.default_rng(10), 3)
        flags = outage_flags(cfg, TS, 40_000, 17)
        est = simulate_outage(cfg, TS, 40_000, 17)
        assert flags.mean() == est.p_hat


class TestScalarVectorConsistency:
    """The vectorized block kernel must reproduce the per-trial reference
    path: same stream, same selections, same outage indicators."""

    def test_blockwise_equivalence(self):
        rng_cfg = np.random.default_rng(20)
        cfg = random_config(rng_cfg, 3)
        trials, seed = 400, 31
        for scheme in ALL_SCHEMES:
            flags = outage_flags(cfg, scheme, trials, seed)
            rng = block_generator(seed, 0)
            for t in range(trials):
                real = sample_realization(cfg, rng)
                k = apply_selection(scheme, cfg, real)
                rate = secrecy_rate(real.gamma_main[k - 1], real.gamma_eve[k - 1])
                assert bool(flags[t]) == (rate < cfg.rate_rs), (scheme.label, t)


def reference_pick(scheme, cfg, real):
    """Per-relay loop form of each selection rule, the reference that the
    simulator's vectorised rule is checked against."""
    if scheme.kind == "SINGLE":
        return scheme.relay
    if scheme.kind == "PS":
        return select_ps(cfg)
    main = real.gamma_main
    metric = {
        "OS": [secrecy_rate(m, e) for m, e in zip(main, real.gamma_eve)],
        "TS": list(main),
        "SS-RE": [m * r.eve_rate for m, r in zip(main, cfg.relays)],
        "SS-RD": list(real.gamma_rd),
        "SS-SR": list(real.gamma_sr),
    }[scheme.kind]
    return metric.index(max(metric)) + 1


class TestSelectionReference:
    def test_block_rule_matches_the_loop_rule(self):
        rng_cfg = np.random.default_rng(21)
        zero_rate_ties = 0
        for n in (2, 3, 5):
            cfg = random_config(rng_cfg, n)
            rng = block_generator(32, n)
            for _ in range(300):
                real = sample_realization(cfg, rng)
                rates = [secrecy_rate(m, e) for m, e in zip(real.gamma_main, real.gamma_eve)]
                zero_rate_ties += rates.count(0.0) > 1
                for scheme in ALL_SCHEMES:
                    expected = reference_pick(scheme, cfg, real)
                    assert apply_selection(scheme, cfg, real) == expected, (scheme.label, real)
        assert zero_rate_ties > 0


class TestPathwiseDominance:
    def test_best_secrecy_selection_never_loses_on_a_shared_realization(self):
        cfg = random_config(np.random.default_rng(30), 4)
        trials, seed = 20_000, 55
        os_flags = outage_flags(cfg, OS, trials, seed)
        for scheme in ALL_SCHEMES[1:]:
            other = outage_flags(cfg, scheme, trials, seed)
            assert not np.any(os_flags & ~other)
