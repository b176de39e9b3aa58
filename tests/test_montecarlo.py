import hashlib
import math
import multiprocessing
import sys
import threading
import warnings
from concurrent.futures import Future
from fractions import Fraction

import numpy as np
import pytest

from conftest import random_config
from relaysec import montecarlo, params
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
    outage_for_scheme,
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

    @pytest.mark.parametrize(
        "main, eve",
        [(0.0, math.inf), (math.inf, 0.0), (-1.0, 0.0), (0.0, -1e-300), (math.nan, 1.0)],
    )
    def test_rejects_negative_or_non_finite_snrs(self, main, eve):
        with pytest.raises(ConfigError, match="finite and >= 0"):
            secrecy_rate(main, eve)


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

    @pytest.mark.parametrize("links", [(0, 0, 0), (1, 1, 1), (0, 0, 1)],
                             ids=["high-snr", "low-snr", "weak-eavesdropper"])
    def test_link_rates_at_the_range_corners_keep_every_snr_finite(self, links):
        # Tier-1 turns numpy's overflow RuntimeWarning into an error.
        ends = (params._MIN_RATE, params._MAX_RATE)
        cfg = SystemConfig(tuple(RelayLinkParams(*(ends[e] for e in links)) for _ in range(3)), 0.5)
        for scheme in ALL_SCHEMES:
            est = simulate_outage(cfg, scheme, 4_000, 3)
            closed = outage_for_scheme(cfg, scheme).p
            # The closed form's standard error: est.std_err is 0 where every
            # trial is in outage, while the closed form reads 1 - 2e-16.
            std_err = math.sqrt(closed * (1 - closed) / 4_000)
            assert abs(est.p_hat - closed) <= 4 * std_err, scheme.label

    def test_rate_511_counts_every_trial_as_an_outage_without_warning(self):
        # rho * (1 + eve) overflows to inf, the limit, on every block's pool
        # thread; two blocks run on the pool.
        cfg = SystemConfig(tuple(RelayLinkParams.from_mean_snr_db(10.0 + i, 10.0, 0.0)
                                 for i in range(6)), 511.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for scheme in ALL_SCHEMES:
                est = simulate_outage(cfg, scheme, montecarlo.BLOCK_SIZE + 10, 4)
                assert est.p_hat == 1.0, scheme.label
                assert outage_flags(cfg, scheme, 100, 4).all(), scheme.label


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


class TestFirstMax:
    """The simulator's whole-array first maximum is np.argmax over the relay
    axis, the lowest index among ties, on every metric the simulator forms."""

    @pytest.mark.parametrize("n", [1, 2, 4, 7, 32])
    @pytest.mark.parametrize("values", ["ties", "infinities", "continuous"])
    def test_matches_argmax(self, n, values):
        rng = np.random.default_rng(n)
        shape = (3, n, 2_000)
        pools = {
            "ties": [-1.0, -0.0, 0.0, 1.0, 2.0],
            "infinities": [-np.inf, -1.0, 0.0, 1.0, np.inf],
        }
        metric = (
            rng.standard_normal(shape) if values == "continuous" else rng.choice(pools[values], shape)
        )
        top, idx = np.empty((3, 2_000)), np.empty((3, 2_000), dtype=np.intp)
        bools = np.empty((2, 3, 2_000), dtype=bool)
        got = montecarlo._first_max(metric, top, idx, *bools)
        assert got is idx
        assert np.array_equal(idx, np.argmax(metric, axis=1))
        assert np.array_equal(top, np.max(metric, axis=1))

    @pytest.mark.parametrize("scheme", ALL_SCHEMES[:5], ids=lambda s: s.label)
    def test_metrics_at_the_range_corners_hold_no_nan(self, scheme):
        # Hops at either end of the range give link SNRs from about 1e-46 to
        # 4e31, and eavesdropper rates over 60 decades push OS's ratio and
        # SS-RE's product to their extremes; neither leaves float64.
        cfgs, n, rows = range_corner_configs(), 5, 4_096
        curve = montecarlo._Curve(scheme, cfgs, rows)
        planes = np.empty((2, len(cfgs), n, rows))
        for b in range(3):
            links = block_links(b, n, rows)
            metric = montecarlo._metric(scheme, links, curve.neg_rates, curve.eve_weights, *planes)
            assert np.isfinite(metric).all(), (scheme.label, b)

    def test_ss_re_picks_the_exact_maximum_at_the_range_corners(self):
        # The pick must be the first maximum of the exact rational products
        # min(sr, rd) * eve_rate.
        cfgs, n, rows = range_corner_configs(), 5, 2_000
        curve = montecarlo._Curve(SS_RE, cfgs, rows)
        links = block_links(0, n, rows)
        planes = np.empty((2, len(cfgs), n, rows))
        metric = montecarlo._metric(SS_RE, links, curve.neg_rates, curve.eve_weights, *planes)
        picks = montecarlo._first_max(
            metric, np.empty((len(cfgs), rows)), np.empty((len(cfgs), rows), dtype=np.intp),
            *np.empty((2, len(cfgs), rows), dtype=bool),
        )
        main = np.minimum(links[0] / curve.neg_rates[0, :, :, None],
                          links[1] / curve.neg_rates[1, :, :, None])
        wrong = 0
        for c, cfg in enumerate(cfgs):
            weights = [Fraction(r.eve_rate) for r in cfg.relays]
            for t in range(rows):
                exact = [Fraction(m) * w for m, w in zip(main[c, :, t].tolist(), weights)]
                wrong += int(picks[c, t]) != exact.index(max(exact))
            # apply_selection scales its weights the same way.
            real = make_real(main[c, :, 0], main[c, :, 0], [0.0] * n)
            assert apply_selection(SS_RE, cfg, real) == picks[c, 0] + 1
        assert wrong == 0


def range_corner_configs():
    """Sixteen 5-relay configs with every hop at or near either end of the
    range and eavesdropper rates over the whole range, both orders."""
    lo, hi = params._MIN_RATE, params._MAX_RATE
    eves = np.geomspace(lo, hi, 5)
    return tuple(
        SystemConfig(tuple(RelayLinkParams(hop, hop, e) for e in eves[::order]), 0.5)
        for m in (1.0, 2.0, 3.0, 100.0) for hop in (lo * m, hi / m) for order in (1, -1)
    )


def block_links(block, n, rows):
    """ln(U) of the first `rows` trials of seed 5's block, laid out (3, n, rows)."""
    u = montecarlo._uniforms(block_generator(5, block), np.empty((rows, n, 3)))
    return np.log(u).transpose(2, 1, 0).copy()


class TestPathwiseDominance:
    def test_best_secrecy_selection_never_loses_on_a_shared_realization(self):
        cfg = random_config(np.random.default_rng(30), 4)
        trials, seed = 20_000, 55
        os_flags = outage_flags(cfg, OS, trials, seed)
        for scheme in ALL_SCHEMES[1:]:
            other = outage_flags(cfg, scheme, trials, seed)
            assert not np.any(os_flags & ~other)


PIN_TRIALS, PIN_SEED = 40_000, 7  # two full blocks and a partial one
PIN_N1 = SystemConfig((RelayLinkParams.from_mean_snr_db(10.0, 12.0, 3.0),), rate_rs=0.5)
PIN_N4 = SystemConfig(
    tuple(RelayLinkParams.from_mean_snr_db(8.0 + k, 11.0 - k, 3.0 * k) for k in range(4)),
    rate_rs=0.8,
)
PIN_N2 = SystemConfig(
    tuple(RelayLinkParams.from_mean_snr_db(9.0 + 2 * k, 12.0 - k, 4.0 * k) for k in range(2)),
    rate_rs=0.6,
)
_N1_FLAGS = "e3ded6bf74a30d9c23c9fd57d1261e5ba8d5eb745b2d64a548c8a48bf2d44e27"
_N2_CURVE = "30043b7c88c3967f5ad3c5ee4cd854ed45bf686b6b6a57c6352dd18a92625142"

_PINNED = [  # (config, scheme, sha256 of the outage flags, p_hat)
    (PIN_N1, OS, _N1_FLAGS, 0.48485),
    (PIN_N1, TS, _N1_FLAGS, 0.48485),
    (PIN_N1, SS_RE, _N1_FLAGS, 0.48485),
    (PIN_N1, SS_RD, _N1_FLAGS, 0.48485),
    (PIN_N1, SS_SR, _N1_FLAGS, 0.48485),
    (PIN_N1, PS, _N1_FLAGS, 0.48485),
    (PIN_N1, single(1), _N1_FLAGS, 0.48485),
    (PIN_N2, OS, "6ab77807599dfcf25f5ef15dc560759a633578fffcd96da974d9a3dced33a54d", 0.26185),
    (PIN_N2, TS, "84d92e49447799c9ecb6288ae3486c3eeb99973ebba8ff9eef9bbceef4e3550f", 0.318075),
    (PIN_N2, SS_RE, "2d32063adda0d63c83cf44aeea4328cf74f209a694d146b654f265fd9ad75b67", 0.305575),
    (PIN_N2, SS_RD, "c020dd02e5e4118a486fd6ca35c297b46fd426deaf0e352ee5797c3e7d779d31", 0.40265),
    (PIN_N2, SS_SR, "4bcbd6f46d8289487634b142d140ab1eda74529b2067f95e70c32b671edce786", 0.399125),
    (PIN_N2, PS, "1f50a0e8509089c64ca0480e0ab9a13fdb0714e82381764a357b55d612dda075", 0.455125),
    (PIN_N2, single(2), "e24d62fb1bd9263fe26ff35105542638e78e682fd3c5429c4300f90bb79e3a47", 0.5728),
    (PIN_N4, OS, "2bc527ca0637257e2bade29293949f6dd2c15dd584fa83e8eb6cd0d132207707", 0.35425),
    (PIN_N4, TS, "2dd82905bc5b215cb2121e8c1d702e318f33f2ee14e8d47500acedf826bafb4c", 0.504125),
    (PIN_N4, SS_RE, "276f24c6b98d43c3eb219cff2229677a4f8d33aa05f277ca24e907f022cf020a", 0.464375),
    (PIN_N4, SS_RD, "11d6bf18354ba031790d6f15c063da5294c73185c7d7d81d05dba58c80d4c72e", 0.6098),
    (PIN_N4, SS_SR, "e7a8006f7339ba2eedf04a7e6725f9f11121815a9493174b8fde8b10491f2838", 0.690425),
    (PIN_N4, PS, "7edc306f868c434486b19a329249212ea245054961d6531dee8efc23b32e3574", 0.6433),
    (PIN_N4, single(3), "28507bb825a8c1b2485f83798de00ace56781402c4f479190815f1a4495d7152", 0.8304),
]


class TestPinnedStream:
    """sha256 of the outage flags and the exact estimate, recorded before the
    block kernel moved to reused buffers and a thread pool: the random stream
    and the arithmetic on it must not change."""

    @pytest.mark.parametrize(
        "cfg, scheme, flags_sha256, p_hat",
        _PINNED,
        ids=[f"N{cfg.n_relays}-{scheme.label}" for cfg, scheme, _, _ in _PINNED],
    )
    def test_fingerprint(self, cfg, scheme, flags_sha256, p_hat):
        flags = outage_flags(cfg, scheme, PIN_TRIALS, PIN_SEED)
        assert flags.dtype == np.bool_ and flags.shape == (PIN_TRIALS,)
        assert hashlib.sha256(flags.tobytes()).hexdigest() == flags_sha256
        assert simulate_outage(cfg, scheme, PIN_TRIALS, PIN_SEED).p_hat == p_hat

    def test_n2_curve_fingerprint(self):
        # sha256 of every rule's estimates over a 13-config N = 2 curve.
        curve = _curve(2, 13)
        estimates = [[e.p_hat for e in simulate_outage(curve, s, PIN_TRIALS, PIN_SEED)]
                     for s in ALL_SCHEMES + (single(2),)]
        assert hashlib.sha256(np.array(estimates).tobytes()).hexdigest() == _N2_CURVE


def _run_in_threads(calls, timeout=120.0):
    """Run each zero-argument call on its own thread; results in call order."""
    results = [None] * len(calls)

    def run(i):
        results[i] = calls[i]()

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(calls))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout)
    assert not any(t.is_alive() for t in threads), "simulation threads hung"
    return results


def _fork_child_simulates(queue):
    queue.put(simulate_outage(PIN_N4, OS, 3 * montecarlo.BLOCK_SIZE, 5))


class TestBlockPool:
    """Blocks run on a thread pool; the results may not depend on it."""

    @pytest.fixture
    def pool_of(self, monkeypatch):
        def install(workers):
            monkeypatch.setattr(montecarlo, "_cores", lambda: workers)

        return install

    def test_results_do_not_depend_on_the_worker_count(self, pool_of):
        trials = 5 * montecarlo.BLOCK_SIZE + 123
        runs = []
        for workers in (1, 2):
            pool_of(workers)
            runs.append(
                [outage_flags(PIN_N4, s, trials, 11).tobytes() for s in ALL_SCHEMES]
                + [simulate_outage(PIN_N4, s, trials, 11) for s in ALL_SCHEMES]
            )
        assert runs[0] == runs[1]

    def test_concurrent_callers_get_the_serial_results(self, pool_of):
        trials = 3 * montecarlo.BLOCK_SIZE + 5
        jobs = [(PIN_N4, s, trials, seed) for s in (OS, TS, SS_RE) for seed in (1, 2)]
        jobs += [(PIN_N1, TS, 1_000, 3), (PIN_N1, OS, trials, 4)]
        pool_of(1)
        expected = [(outage_flags(*job).tobytes(), simulate_outage(*job)) for job in jobs]
        pool_of(4)  # more workers than this suite assumes cores
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = _run_in_threads(
                [lambda job=job: (outage_flags(*job).tobytes(), simulate_outage(*job)) for job in jobs]
            )
        finally:
            sys.setswitchinterval(interval)
        assert got == expected

    def test_single_block_call_runs_inline(self, monkeypatch):
        def no_pool():
            raise AssertionError("a one-block call used the pool")

        monkeypatch.setattr(montecarlo, "_executor", no_pool)
        assert simulate_outage(PIN_N4, OS, montecarlo.BLOCK_SIZE, 5).trials == montecarlo.BLOCK_SIZE

    def test_a_long_call_keeps_a_bounded_number_of_blocks_in_flight(self, monkeypatch):
        trials = 11 * montecarlo.BLOCK_SIZE + 7
        expected = (outage_flags(PIN_N1, OS, trials, 6), simulate_outage(PIN_N1, OS, trials, 6))
        in_flight, peak = set(), [0]

        class Counted(Future):
            def result(self, timeout=None):
                in_flight.discard(self)
                return super().result(timeout)

        class InlinePool:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def submit(self, fn, *args):
                future = Counted()
                future.set_result(fn(*args))
                in_flight.add(future)
                peak[0] = max(peak[0], len(in_flight))
                return future

        monkeypatch.setattr(montecarlo, "_cores", lambda: 1)
        monkeypatch.setattr(montecarlo, "_executor", InlinePool)
        got = (outage_flags(PIN_N1, OS, trials, 6), simulate_outage(PIN_N1, OS, trials, 6))
        assert peak[0] == 4
        assert np.array_equal(got[0], expected[0]) and got[1] == expected[1]

    def test_returned_flags_own_their_memory(self):
        first = outage_flags(PIN_N4, TS, 1_000, 1)
        kept = first.copy()
        outage_flags(PIN_N4, SS_SR, 1_000, 2)
        outage_flags(PIN_N4, TS, 3 * montecarlo.BLOCK_SIZE, 3)
        assert np.array_equal(first, kept)

    def test_forked_child_simulates_after_the_parent_made_the_pool(self):
        expected = simulate_outage(PIN_N4, OS, 3 * montecarlo.BLOCK_SIZE, 5)
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        child = ctx.Process(target=_fork_child_simulates, args=(queue,))
        child.start()
        try:
            got = queue.get(timeout=30)
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
                child.join()
        assert got == expected
        assert child.exitcode == 0


class ZeroAt:
    """A block's own Philox stream with an exact 0.0 planted at uniform
    `pos` of the block, (trial, relay, link), in whichever fill draws that
    trial; records every draw request."""

    def __init__(self, pos, *key):
        self.key, self.gen, self.pos = key, block_generator(*key), pos
        self.requests, self.drawn = [], 0

    def random(self, size=None, out=None):
        self.requests.append("fill" if out is not None else size)
        values = self.gen.random(size, out=out)
        if out is not None:
            rows = out.reshape((-1,) + out.shape[-2:])
            t = self.pos[0] - self.drawn
            if 0 <= t < len(rows):
                rows[(t,) + self.pos[1:]] = 0.0
            self.drawn += len(rows)
        return values


def _drawn_past(stub, shape):
    """Whether the stub's stream stands where a fresh generator of its key
    stands after one random(shape) draw."""
    fresh = block_generator(*stub.key)
    fresh.random(shape)
    return repr(stub.gen.bit_generator.state) == repr(fresh.bit_generator.state)


def _ts_flags_at_zero(cfg, trials, seed, pos):
    """TS outage flags of block 0 from a whole-block draw whose uniform at
    pos is 2**-54, with np.argmax selection."""
    u = block_generator(seed, 0).random((trials, cfg.n_relays, 3))
    u[pos] = 2.0**-54
    g = np.log(u) / -np.array([[r.sr_rate, r.rd_rate, r.eve_rate] for r in cfg.relays])
    main = np.minimum(g[:, :, 0], g[:, :, 1])
    k, rows = np.argmax(main, axis=1), np.arange(trials)
    return (main[rows, k] + 1.0) < (g[rows, k, 2] + 1.0) * cfg.rho


class TestExactZero:
    """An exact 0.0 uniform is read as 2**-54: a block draws one fill per
    chunk and nothing else, and scores what a whole-block draw with that
    uniform set to 2**-54 gives."""

    @pytest.mark.parametrize("trial", [100, montecarlo.BLOCK_SIZE - 1], ids=["first-chunk", "last-chunk"])
    @pytest.mark.parametrize("points", [1, 13], ids=["one-config", "13-config-curve"])
    def test_a_block_matches_a_whole_block_replay(self, monkeypatch, trial, points):
        curve, trials, seed, pos = _curve(2, points), montecarlo.BLOCK_SIZE, 5, (trial, 1, 0)
        stubs = []

        def stub_generator(*key):
            stubs.append(ZeroAt(pos, *key))
            return stubs[-1]

        monkeypatch.setattr(montecarlo, "block_generator", stub_generator)
        got = simulate_outage(curve, TS, trials, seed)
        flags = outage_flags(curve[0], TS, trials, seed)
        monkeypatch.undo()

        for stub, cfgs in zip(stubs, (curve, curve[:1]), strict=True):
            chunks = -(-trials // montecarlo._Curve(TS, cfgs, trials).rows)
            assert chunks > 1
            assert stub.requests == ["fill"] * chunks
            assert _drawn_past(stub, (trials, 2, 3))
        for cfg, est in zip(curve, got):
            assert est.p_hat == np.count_nonzero(_ts_flags_at_zero(cfg, trials, seed, pos)) / trials
        assert np.array_equal(flags, _ts_flags_at_zero(curve[0], trials, seed, pos))

    def test_a_realization_matches_its_replay(self):
        cfg, pos = random_config(np.random.default_rng(40), 3), (0, 2, 1)
        stub = ZeroAt(pos, 3, 0)
        real = sample_realization(cfg, stub)
        assert stub.requests == ["fill"]
        assert _drawn_past(stub, (cfg.n_relays, 3))
        u = block_generator(3, 0).random((cfg.n_relays, 3))
        u[pos[1:]] = 2.0**-54
        g = -np.log(u) / np.array([[r.sr_rate, r.rd_rate, r.eve_rate] for r in cfg.relays])
        assert real == make_real(g[:, 0], g[:, 1], g[:, 2])
        assert np.isfinite(g).all()


def _curve(n, points, rate_rs=0.8):
    """Configs of one sweep-like curve: N relays whose hop SNRs climb together."""
    return [
        SystemConfig(
            tuple(RelayLinkParams.from_mean_snr_db(db + k, db + 3.0 - k, 2.0 * k) for k in range(n)),
            rate_rs=rate_rs,
        )
        for db in np.linspace(0.0, 30.0, points)
    ]


# A climbing curve, then its midpoint with the relays reversed, where PS
# picks the last relay instead of the first.
CURVE = _curve(3, 5) + [SystemConfig(_curve(3, 5)[2].relays[::-1], rate_rs=0.8)]
# One partial block in one chunk, one full block, several full blocks, and a
# partial last block that ends in a partial chunk, under every rule (CURVE
# scores 2,880 rows per chunk under OS, TS and SS-RE, 3,912 under SS-RD and
# SS-SR, and 6,393 under PS and a pinned relay).
CURVE_TRIALS = [
    1_000,
    montecarlo.BLOCK_SIZE,
    3 * montecarlo.BLOCK_SIZE,
    2 * montecarlo.BLOCK_SIZE + 7_001,
]


class TestConfigSequence:
    """simulate_outage over a sequence of configs draws each block once, and
    each config's estimate is the one a call with that config alone returns."""

    @pytest.fixture(params=[1, 2], ids=["1-worker", "2-workers"])
    def workers(self, request, monkeypatch):
        monkeypatch.setattr(montecarlo, "_cores", lambda: request.param)
        return request.param

    def test_the_curve_moves_the_fixed_picks(self):
        assert [select_ps(cfg) for cfg in CURVE] == [1, 1, 1, 1, 1, 3]

    @pytest.mark.parametrize("scheme", ALL_SCHEMES + (single(2),), ids=lambda s: s.label)
    def test_the_trial_counts_cross_chunk_boundaries(self, scheme):
        rows = montecarlo._Curve(scheme, CURVE, montecarlo.BLOCK_SIZE).rows
        last = CURVE_TRIALS[-1] % montecarlo.BLOCK_SIZE
        assert CURVE_TRIALS[0] < rows < last and last % rows

    @pytest.mark.parametrize("trials", CURVE_TRIALS)
    @pytest.mark.parametrize("scheme", ALL_SCHEMES + (single(2),), ids=lambda s: s.label)
    def test_each_estimate_equals_its_single_config_call(self, workers, scheme, trials):
        got = simulate_outage(CURVE, scheme, trials, 23)
        assert isinstance(got, tuple) and len(got) == len(CURVE)
        assert got == tuple(simulate_outage(cfg, scheme, trials, 23) for cfg in CURVE)

    def test_a_sequence_of_one_returns_a_tuple_of_one(self):
        assert simulate_outage((PIN_N4,), TS, 5_000, 3) == (simulate_outage(PIN_N4, TS, 5_000, 3),)

    def test_each_block_is_drawn_once(self, monkeypatch):
        made = []

        def counted(*key):
            made.append(key)
            return block_generator(*key)

        monkeypatch.setattr(montecarlo, "block_generator", counted)
        simulate_outage(CURVE, OS, 3 * montecarlo.BLOCK_SIZE, 4)
        assert sorted(made) == [(4, b) for b in range(3)]

    @pytest.mark.parametrize(
        "cfgs",
        [[], (), _curve(2, 2) + _curve(3, 1), [PIN_N4, "not a config"], iter(CURVE)],
        ids=["empty-list", "empty-tuple", "mixed-relay-counts", "not-a-config", "iterator"],
    )
    def test_rejects_a_bad_sequence(self, cfgs):
        with pytest.raises(ConfigError):
            simulate_outage(cfgs, TS, 1_000, 1)

    @pytest.mark.parametrize("trials", [1000.5, "1000", 0])
    def test_rejects_a_bad_trial_count(self, trials):
        with pytest.raises(ConfigError):
            simulate_outage(CURVE, TS, trials, 1)

    def test_a_long_call_keeps_a_bounded_number_of_blocks_in_flight(self, monkeypatch):
        trials = 11 * montecarlo.BLOCK_SIZE + 7
        expected = simulate_outage(CURVE, OS, trials, 6)
        in_flight, peak = set(), [0]

        class Counted(Future):
            def result(self, timeout=None):
                in_flight.discard(self)
                return super().result(timeout)

        class InlinePool:
            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return None

            def submit(self, fn, *args):
                future = Counted()
                future.set_result(fn(*args))
                in_flight.add(future)
                peak[0] = max(peak[0], len(in_flight))
                return future

        monkeypatch.setattr(montecarlo, "_cores", lambda: 1)
        monkeypatch.setattr(montecarlo, "_executor", InlinePool)
        assert simulate_outage(CURVE, OS, trials, 6) == expected
        assert peak[0] == 4

    def test_workspace_stays_at_four_block_doubles_per_relay(self, workers, monkeypatch):
        # A 13-config curve must fit the single-config footprint: one block's
        # ln(U) and one chunk's links and metric scratch, 4 * BLOCK_SIZE * N
        # doubles in every thread that runs blocks.  The fresh pool's threads
        # hold no buffer grown by an earlier test.
        sizes, workspace = [], montecarlo._workspace

        def recorded(*shape):
            views = workspace(*shape)
            sizes.append(montecarlo._local.buf.size)
            return views

        monkeypatch.setattr(montecarlo, "_workspace", recorded)
        curve = _curve(4, 13)
        trials = 2 * montecarlo.BLOCK_SIZE + 321
        for scheme in ALL_SCHEMES:
            simulate_outage(curve, scheme, trials, 8)
        assert sizes and max(sizes) <= 4 * montecarlo.BLOCK_SIZE * 4

    @pytest.mark.parametrize("scheme", ALL_SCHEMES + (single(1),), ids=lambda s: s.label)
    @pytest.mark.parametrize(
        "n, points, trials",
        [(4, 2_000, 1_000), (32, 64, montecarlo.BLOCK_SIZE + 100), (1, 9_000, 300)],
        # N = 1 scores 9,000 configs one row at a time under all but PS and
        # a pinned relay, which take three.
        ids=["N4-2000-configs", "N32-64-configs", "N1-9000-configs"],
    )
    def test_large_curves_stay_within_the_workspace(
        self, workers, monkeypatch, scheme, n, points, trials
    ):
        # Every thread, the caller's among them, starts without a buffer.
        monkeypatch.setattr(montecarlo, "_local", threading.local())
        sizes, workspace = [], montecarlo._workspace

        def recorded(*shape):
            views = workspace(*shape)
            sizes.append(montecarlo._local.buf.size)
            return views

        monkeypatch.setattr(montecarlo, "_workspace", recorded)
        curve = _curve(n, points)
        got = simulate_outage(curve, scheme, trials, 12)
        assert sizes and max(sizes) <= 4 * montecarlo.BLOCK_SIZE * n
        sample = {0, 1, points // 2, points - 1} | set(np.random.default_rng(n).integers(0, points, 3).tolist())
        for i in sorted(sample):
            assert got[i] == simulate_outage(curve[i], scheme, trials, 12), i

    def test_a_curve_too_large_for_one_row_gets_one_row_chunks(self, workers, monkeypatch):
        trials = montecarlo.BLOCK_SIZE + 7
        expected = tuple(simulate_outage(cfg, SS_RE, trials, 9) for cfg in CURVE)
        made, sizes, workspace = [], [], montecarlo._workspace

        def counted(*key):
            made.append(key)
            return block_generator(*key)

        def recorded(*shape):
            views = workspace(*shape)
            sizes.append(montecarlo._local.buf.size)
            return views

        monkeypatch.setattr(montecarlo, "block_generator", counted)
        monkeypatch.setattr(montecarlo, "_workspace", recorded)
        # Every thread, the caller's among them, starts without a buffer,
        # and the bound holds less than one row of CURVE.
        monkeypatch.setattr(montecarlo, "_local", threading.local())
        monkeypatch.setattr(montecarlo, "_WORKSPACE", 1)
        assert montecarlo._Curve(SS_RE, CURVE, trials).rows == 1
        assert simulate_outage(CURVE, SS_RE, trials, 9) == expected
        assert sorted(made) == [(9, 0), (9, 1)]
        # One row of 6 configs of 3 relays: the uniforms and their ln(U), 9
        # doubles each, two link planes of 18, top and idx of 6, and 18 bools.
        assert set(sizes) == {2 * 9 + 2 * 18 + 2 * 6 + 3}

    @pytest.mark.parametrize("scheme", ALL_SCHEMES + (single(4),), ids=lambda s: s.label)
    def test_each_rule_is_charged_only_for_what_it_holds(self, monkeypatch, scheme):
        # fig5 scores 26 configs of 4 relays per call.  Charged for two link
        # planes and five per-trial arrays, every rule got 705 rows per chunk;
        # PS and a pinned relay hold no plane, SS-RD and SS-SR one.
        least = {"PS": 3_000, "SINGLE": 3_000, "SS-RD": 1_300, "SS-SR": 1_300}.get(scheme.kind, 880)
        rows = montecarlo._Curve(scheme, _curve(4, 26), montecarlo.BLOCK_SIZE).rows
        assert rows >= least > 705
        monkeypatch.setattr(montecarlo, "_local", threading.local())
        montecarlo._workspace(rows, 4, 26, montecarlo._PLANES[scheme.kind])
        assert montecarlo._local.buf.size == 4 * montecarlo.BLOCK_SIZE * 4
