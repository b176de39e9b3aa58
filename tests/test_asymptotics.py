import csv
import functools
import json
import math
import sys

import mpmath
import numpy as np
import pytest

from relaysec import (
    RelayLinkParams,
    SystemConfig,
    asymp_os_balanced,
    asymp_os_unbalanced_floor,
    asymp_single_balanced,
    asymp_single_unbalanced,
    asymp_ts_balanced,
    db_to_linear,
    diversity_order_estimate,
    outage_os,
    outage_ts,
    rho_of_rate,
    single_relay_outage,
    snr_gap_db,
)
from relaysec.cli import main
from relaysec.params import ConfigError


def balanced_config(n, hop_rate, eve_rate, rate_rs):
    relays = tuple(RelayLinkParams(hop_rate, hop_rate, eve_rate) for _ in range(n))
    return SystemConfig(relays, rate_rs)


# Each expansion as a function of rho alone, every other input fixed.
EXPANSIONS = {
    "asymp_single_balanced": lambda rho: asymp_single_balanced(0.5, rho, 100.0),
    "asymp_single_unbalanced": lambda rho: asymp_single_unbalanced(0.2, 0.5, rho, 100.0),
    "asymp_os_balanced": lambda rho: asymp_os_balanced([0.5, 2.0], rho, 100.0),
    "asymp_os_unbalanced_floor": lambda rho: asymp_os_unbalanced_floor([0.2, 0.3], [0.5, 2.0], rho),
    "asymp_ts_balanced": lambda rho: asymp_ts_balanced([0.5, 2.0], rho, 100.0),
    "snr_gap_db": lambda rho: snr_gap_db(2.0, 0.5, rho),
}


class TestRhoRule:
    """The expansions take rho as the closed forms do: finite and >= 1, where
    rho = 1 is the zero-rate limit."""

    @pytest.mark.parametrize("rho", [0.5, math.nan, math.inf], ids=["0.5", "nan", "inf"])
    @pytest.mark.parametrize("name", EXPANSIONS)
    def test_refuses_rho_outside_the_range(self, name, rho):
        with pytest.raises(ConfigError, match="rho must be finite and >= 1"):
            EXPANSIONS[name](rho)

    def test_rho_one_gives_the_zero_rate_limit(self):
        a, b, m = 0.5, 0.2, 100.0
        assert EXPANSIONS["asymp_single_balanced"](1.0).value == pytest.approx(2.0 / (m * a))
        unbalanced = EXPANSIONS["asymp_single_unbalanced"](1.0)
        assert unbalanced.floor == b / (b + a)
        assert unbalanced.value == pytest.approx(b / (b + a) + 1.0 / ((b + a) * m))
        assert EXPANSIONS["asymp_os_balanced"](1.0).value == pytest.approx(
            (2.0 / (m * a)) * (2.0 / (m * 2.0)))
        assert EXPANSIONS["asymp_os_unbalanced_floor"](1.0).floor == pytest.approx(
            (b / (b + a)) * (0.3 / 2.3))
        # Only the j = 0 term survives: (N-1)!/m^N * sum_k 1/a_k^N.
        assert EXPANSIONS["asymp_ts_balanced"](1.0).value == pytest.approx(
            m**-2 * (1.0 / a**2 + 1.0 / 2.0**2))
        assert EXPANSIONS["snr_gap_db"](1.0) == pytest.approx(10 * math.log10(2.0 / 0.5))


class TestSingleBalanced:
    def test_hand_value(self):
        res = asymp_single_balanced(0.5, 2.0, 100.0)
        assert res.value == pytest.approx(0.1, rel=1e-14, abs=0.0)
        assert res.slope_order == 1
        assert res.floor is None

    def test_vanishes_at_infinite_snr(self):
        assert asymp_single_balanced(1.0, 2.0, 1e15).value < 1e-13

    def test_is_the_published_expression_to_the_bit(self):
        rng = np.random.default_rng(25)
        for a, rho, m in 10.0 ** rng.uniform([-30, 0, -30], [30, 30, 30], size=(2000, 3)):
            res = asymp_single_balanced(a, rho, m)
            assert res.value == (2.0 / m) * (rho / a + (rho - 1.0))

    def test_tracks_the_exact_value_at_high_snr(self):
        hop_rate = 1e-6  # 60 dB per hop
        exact = single_relay_outage(RelayLinkParams(hop_rate, hop_rate, 1.0), 2.0).p
        approx = asymp_single_balanced(1.0, 2.0, 1e6).value
        assert exact / approx == pytest.approx(1.0, abs=0.01)


class TestSingleUnbalanced:
    def test_floor_formula(self):
        fixed, eve, rho = 0.2, 0.5, 2.0
        res = asymp_single_unbalanced(fixed, eve, rho, 1e4)
        expected_floor = 1.0 - eve * math.exp(-fixed * (rho - 1)) / (rho * fixed + eve)
        assert res.floor == pytest.approx(expected_floor, rel=1e-14, abs=0.0)

    def test_value_approaches_the_floor(self):
        res_hi = asymp_single_unbalanced(0.2, 0.5, 2.0, 1e12)
        assert res_hi.value == pytest.approx(res_hi.floor, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("fixed_db", [25.0, 30.0, 35.0])
    def test_varying_term_crosses_the_floor_at_the_pinned_snr(self, fixed_db):
        # The decaying term equals the floor roughly where the growing hop
        # overtakes the pinned one.
        eve_rate = 1.0 / db_to_linear(6.0)
        fixed_rate = 1.0 / db_to_linear(fixed_db)
        rho = rho_of_rate(0.1)
        floor = asymp_single_unbalanced(fixed_rate, eve_rate, rho, 1.0).floor
        varying_at_one = asymp_single_unbalanced(fixed_rate, eve_rate, rho, 1.0).value - floor
        crossing_snr = varying_at_one / floor  # varying scales as 1/snr
        assert 10.0 * math.log10(crossing_snr) == pytest.approx(fixed_db, abs=0.5)


def mp_floor(fixed_rate, eve_rate, rho):
    """The single-branch W(B) at B = fixed_rate, to 50 digits."""
    with mpmath.workdps(50):
        b, a, rho = map(mpmath.mpf, (fixed_rate, eve_rate, rho))
        return 1 - a * mpmath.exp(-b * (rho - 1)) / (b * rho + a)


def mp_ts_published(rates, rho, mean_snr):
    """The TS expansion as published, to 60 digits:

        (1/mean_snr)^N * sum_k sum_{i=1..N} sum_{j=0..N}
            C(N,j) (rho-1)^j rho^(N-j) (N-j)! / (N * a_k^(N-j))

    The sum over i has no i in its term, so it is N copies of that term;
    C(N,j) (N-j)! = N!/j!."""
    n = len(rates)
    with mpmath.workdps(60):
        r, beta = mpmath.mpf(rho), 1 / mpmath.mpf(mean_snr)
        return beta**n * sum(
            n * (mpmath.factorial(n) / mpmath.factorial(j) * (r - 1) ** j * (r / a) ** (n - j) / n)
            for a in map(mpmath.mpf, rates) for j in range(n + 1)
        )


def mp_os(rates, rho, mean_snr):
    """The OS expansion to 60 digits.  rho/a + (rho-1) is formed as such:
    (rho/a + rho) - 1 loses digits where rho/a is tiny."""
    with mpmath.workdps(60):
        r, m = mpmath.mpf(rho), mpmath.mpf(mean_snr)
        return mpmath.fprod(2 / m * (r / a + (r - 1)) for a in map(mpmath.mpf, rates))


class TestUnbalancedFloorAccuracy:
    """Pinned hops at 25-70 dB against an eavesdropper at 6 dB put the floor
    far below 1, where 1 - a*e^{-B(rho-1)}/(B*rho + a) loses digits."""

    PINNED_DB = (25.0, 35.0, 70.0)
    EVE_RATE = 1.0 / db_to_linear(6.0)

    @pytest.mark.parametrize("rate", [0.1, 1.0, 2.0])
    @pytest.mark.parametrize("fixed_db", PINNED_DB)
    def test_single_floor(self, fixed_db, rate):
        fixed, rho = 1.0 / db_to_linear(fixed_db), rho_of_rate(rate)
        floor = asymp_single_unbalanced(fixed, self.EVE_RATE, rho, 1.0).floor
        expected = float(mp_floor(fixed, self.EVE_RATE, rho))
        assert floor == pytest.approx(expected, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("rate", [0.1, 1.0, 2.0])
    def test_best_selection_floor(self, rate):
        fixed = [1.0 / db_to_linear(db) for db in self.PINNED_DB]
        rho = rho_of_rate(rate)
        floor = asymp_os_unbalanced_floor(fixed, [self.EVE_RATE] * len(fixed), rho).floor
        with mpmath.workdps(50):
            expected = float(mpmath.fprod(mp_floor(b, self.EVE_RATE, rho) for b in fixed))
        assert floor == pytest.approx(expected, rel=1e-15, abs=0.0)


class TestBestSelectionBalanced:
    def test_single_relay_is_the_one_branch_expansion(self):
        one = asymp_os_balanced([0.7], 2.0, 500.0)
        assert one.value == pytest.approx(asymp_single_balanced(0.7, 2.0, 500.0).value)
        assert one.slope_order == 1

    def test_hand_value_two_relays(self):
        res = asymp_os_balanced([0.5, 0.5], 2.0, 100.0)
        assert res.value == pytest.approx(0.01, rel=1e-14, abs=0.0)
        assert res.slope_order == 2

    def test_monomial_slope(self):
        grid = [40.0, 45.0, 50.0, 55.0, 60.0]
        for n in (1, 2, 3):
            points = [
                (db, asymp_os_balanced([1.0] * n, 2.0, db_to_linear(db)).value)
                for db in grid
            ]
            assert diversity_order_estimate(points, window_db=None) == pytest.approx(
                n, abs=1e-9
            )

    def test_tracks_the_exact_product_at_high_snr(self):
        hop_rate = 10 ** (-70 / 10)
        for n in (2, 3):
            cfg = balanced_config(n, hop_rate, 1.0, 0.5)
            exact = outage_os(cfg).p
            approx = asymp_os_balanced([1.0] * n, cfg.rho, 1.0 / hop_rate).value
            assert exact / approx == pytest.approx(1.0, abs=0.05)

    def test_is_the_plain_product_to_the_bit_while_it_stays_normal(self):
        rng = np.random.default_rng(28)
        for _ in range(500):
            n = int(rng.integers(1, 17))
            rates = [float(a) for a in 10.0 ** rng.uniform(-6, 6, n)]
            rho, mean_snr = float(2.0 ** rng.uniform(0, 8)), float(10.0 ** rng.uniform(0, 8))
            plain = 1.0
            for a in rates:
                plain *= (2.0 / mean_snr) * (rho / a + (rho - 1.0))
            assert asymp_os_balanced(rates, rho, mean_snr).value == plain

    def test_a_partial_product_beyond_the_float_range_is_carried(self):
        # Multiplied left to right these factors gave inf, and reversed 0.0.
        rates = [1e-300] * 2 + [1e300] * 40
        for order in (rates, rates[::-1]):
            value = asymp_os_balanced(order, 4.0, 1e10).value
            assert value == pytest.approx(float(mp_os(order, 4.0, 1e10)), rel=1e-13, abs=0.0)
            assert value == pytest.approx(8.555e212, rel=1e-4)

    def test_a_sweep_with_eavesdroppers_at_both_ends_writes_a_finite_value(self, tmp_path):
        # 11 eavesdroppers at 300 dB, then 11 at -300 dB: a zero rate (rho = 1)
        # at 0 dB (each hop's mean SNR 1/2) makes each factor 4/a, so the
        # value is 4^22, while the first 11 factors alone pass DBL_MAX.
        spec, out = tmp_path / "spec.json", tmp_path / "os.csv"
        spec.write_text(json.dumps({
            "snr_grid_db": [0.0, 100.0], "rates": [1e-17], "schemes": ["OS"],
            "n_relays": 22, "eaves_snr_db": [300.0] * 11 + [-300.0] * 11,
        }))
        assert main(["sweep", "--config", str(spec), "--out", str(out)]) == 0
        with out.open(newline="") as f:
            row = next(r for r in csv.DictReader(f) if r["snr_db"] == "0.0")
        assert float(row["p_asymp"]) == pytest.approx(4.0**22, rel=1e-13, abs=0.0)


class TestBestSelectionFloor:
    def test_single_relay_matches_the_one_branch_floor(self):
        res = asymp_os_unbalanced_floor([0.3], [0.8], 2.0)
        expected = asymp_single_unbalanced(0.3, 0.8, 2.0, 1e9).floor
        assert res.floor == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_product_of_per_relay_floors(self):
        fixed = [0.2, 0.4, 0.15]
        eves = [0.5, 1.0, 2.0]
        res = asymp_os_unbalanced_floor(fixed, eves, 2.0)
        product = 1.0
        for b, a in zip(fixed, eves):
            product *= asymp_single_unbalanced(b, a, 2.0, 1e9).floor
        assert res.floor == pytest.approx(product, rel=1e-10, abs=0.0)
        assert res.value == res.floor

    def test_identical_relays_square_the_floor(self):
        one = asymp_os_unbalanced_floor([0.25], [0.9], 2.0).floor
        two = asymp_os_unbalanced_floor([0.25, 0.25], [0.9, 0.9], 2.0).floor
        assert two == pytest.approx(one**2, rel=1e-12, abs=0.0)


class TestStrongestMainChannelBalanced:
    def test_hand_value_one_relay(self):
        res = asymp_ts_balanced([1.0], 2.0, 100.0)
        assert res.value == pytest.approx(0.03, rel=1e-14, abs=0.0)
        assert res.slope_order == 1

    def test_monomial_slope(self):
        grid = [40.0, 45.0, 50.0, 55.0, 60.0]
        for n in (2, 4):
            points = [
                (db, asymp_ts_balanced([1.0] * n, 4.0, db_to_linear(db)).value)
                for db in grid
            ]
            assert diversity_order_estimate(points, window_db=None) == pytest.approx(
                n, abs=1e-9
            )

    @pytest.mark.parametrize("rate", [0.1, 1.0, 2.0])
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_expansion_converges_to_the_exact_curve(self, n, rate):
        # As criterion 6 checks OS: within 5% of the closed form at 70 dB
        # per hop, eavesdroppers spread over 0-9 dB.
        hop_rate = 1.0 / db_to_linear(70.0)
        eves = [1.0 / db_to_linear(9.0 * i / (n - 1)) for i in range(n)]
        cfg = SystemConfig(tuple(RelayLinkParams(hop_rate, hop_rate, e) for e in eves), rate)
        approx = asymp_ts_balanced(eves, cfg.rho, 1.0 / (2.0 * hop_rate)).value
        assert approx / outage_ts(cfg).p == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize(
        "rates, rho, mean_snr",
        [
            ([1.0] * 2, 2.0**600, 10.0),
            ([1.0] * 171, 2.0, 10.0),
            ([1e-30] * 11, 2.0, 1e30),
            ([1.0] * 11, 2.0, 1e29),
        ],
        ids=["rho-power-overflows", "factorial-overflows", "eve-power-underflows",
             "snr-power-subnormal"],
    )
    def test_powers_beyond_the_float_range(self, rates, rho, mean_snr):
        # A float power or factorial of each case leaves the normal range.
        # To 60 digits the published sum over N is 8.6e359 (beyond
        # DBL_MAX), 6.12e189, 8.18e10 and 1.35e-308 (subnormal).
        n = len(rates)
        expected = mp_ts_published(rates, rho, mean_snr) / n
        got = asymp_ts_balanced(rates, rho, mean_snr)
        assert got.slope_order == n
        if expected > sys.float_info.max:
            assert got.value == math.inf
        else:
            assert got.value == pytest.approx(float(expected), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_is_the_published_expression_over_n(self, n):
        rng = np.random.default_rng(28 + n)
        for _ in range(20):
            rates = [float(a) for a in 10.0 ** rng.uniform(-3, 3, n)]
            rho, mean_snr = float(2.0 ** rng.uniform(0, 8)), float(10.0 ** rng.uniform(0, 8))
            value = asymp_ts_balanced(rates, rho, mean_snr).value
            published = mp_ts_published(rates, rho, mean_snr)
            assert float(published / (n * value)) == pytest.approx(1.0, abs=1e-13)

    def test_a_balanced_sweep_at_the_top_rate_writes_inf(self, tmp_path):
        spec, out = tmp_path / "spec.json", tmp_path / "ts.csv"
        spec.write_text(json.dumps(
            {"snr_grid_db": [10.0], "rates": [511.0], "schemes": ["TS"], "n_relays": 2}
        ))
        assert main(["sweep", "--config", str(spec), "--out", str(out)]) == 0
        with out.open(newline="") as f:
            (row,) = csv.DictReader(f)
        assert row["p_asymp"] == "inf"


@functools.lru_cache(maxsize=1)
def fuzz_cells():
    """(rates, rho, {expansion: (mean_snr, value to 60 digits)}) over the
    public domain at N = 1-16: eavesdropper rates over 1e-30..1e30 or
    1e-300..1e300, rho exactly 1, up to 4 or up to 2^1022, and each
    expansion's mean SNR within 1e-300..1e300, drawn so that its value's
    log10 spreads over [-320, 330]."""
    rng = np.random.default_rng(2028)
    cells = []
    for _ in range(500):
        n = int(rng.integers(1, 17))
        span = (30, 300)[rng.integers(2)]
        rates = [float(a) for a in 10.0 ** rng.uniform(-span, span, n)]
        rho = float((1.0, 2.0 ** rng.uniform(0, 2), 2.0 ** rng.uniform(0, 1022))[rng.integers(3)])
        points = {}
        with mpmath.workdps(60):
            # Each value at mean SNR 1, times mean_snr^-N.
            for f, unit in ((asymp_ts_balanced, mp_ts_published(rates, rho, 1.0) / n),
                            (asymp_os_balanced, mp_os(rates, rho, 1.0))):
                target = mpmath.mpf(10) ** rng.uniform(-320, 330)
                mean_snr = min(max(float(mpmath.root(unit / target, n)), 1e-300), 1e300)
                points[f] = (mean_snr, unit * mpmath.mpf(mean_snr) ** -n)
        cells.append((rates, rho, points))
    return cells


def _in_range(values):
    return all(sys.float_info.min <= v <= sys.float_info.max for v in values)


def _os_factors_in_range(rates, rho, mean_snr):
    """The OS factors, formed in float64 as the library forms them, are
    normal doubles."""
    return _in_range([(2.0 / mean_snr) * (rho / a + (rho - 1.0)) for a in rates])


class TestBalancedExpansionsFuzz:
    """Both balanced expansions against 60 digits over the public domain:
    within 1e-13 relative wherever the value is a normal double, and inf
    beyond DBL_MAX.  OS is checked where its factors, formed in float64,
    are normal doubles (a factor past DBL_MAX stays inf)."""

    @pytest.mark.parametrize("f", [asymp_ts_balanced, asymp_os_balanced],
                             ids=["TS", "OS"])
    def test_against_60_digits(self, f):
        normal = beyond = 0
        for rates, rho, points in fuzz_cells():
            mean_snr, expected = points[f]
            if f is asymp_os_balanced and not _os_factors_in_range(rates, rho, mean_snr):
                continue
            value = f(rates, rho, mean_snr).value
            if expected > sys.float_info.max:
                assert value == math.inf
                beyond += 1
            elif expected >= sys.float_info.min:
                assert float(expected / value) == pytest.approx(1.0, abs=1e-13)
                normal += 1
        assert normal > 150 and beyond > 10

    def test_permuting_the_relays_moves_neither_value(self):
        rng = np.random.default_rng(7)
        for rates, rho, points in fuzz_cells():
            shuffled = [float(a) for a in rng.permutation(rates)]
            for f, (mean_snr, _) in points.items():
                value = f(rates, rho, mean_snr).value
                if _in_range([value]):
                    assert f(shuffled, rho, mean_snr).value == pytest.approx(value, rel=1e-13)

    def test_ts_is_never_below_os_at_twice_the_mean_snr(self):
        # TS's inner sum is at least (rho/a + rho - 1)^N / N!, and the power
        # mean of those N-th powers is at least their geometric mean
        # (Maclaurin's inequality), which is OS at mean SNR 2 * mean_snr.
        # N = 1 is equality, so allow for rounding.
        for rates, rho, points in fuzz_cells():
            mean_snr, _ = points[asymp_ts_balanced]
            if not _os_factors_in_range(rates, rho, 2.0 * mean_snr):
                continue
            ts = asymp_ts_balanced(rates, rho, mean_snr).value
            os_ = asymp_os_balanced(rates, rho, 2.0 * mean_snr).value
            assert ts >= os_ * (1.0 - 1e-13)

    def test_one_relay_is_the_single_branch_expansion(self):
        for rates, rho, points in fuzz_cells():
            mean_snr, _ = points[asymp_ts_balanced]
            ts = asymp_ts_balanced(rates[:1], rho, mean_snr).value
            single = asymp_single_balanced(rates[0], rho, 2.0 * mean_snr).value
            if _in_range([single]):
                assert ts == pytest.approx(single, rel=1e-15, abs=0.0)


FIG5_EVE_RATES = [1.0, 0.5011872336272722, 0.251188643150958, 0.12589254117941673]


class TestPinnedBits:
    """Both balanced expansions pinned as float.hex, so that every python
    that runs the suite agrees to the last bit."""

    @pytest.mark.parametrize("f, rates, rho, mean_snr, bits", [
        (asymp_ts_balanced, FIG5_EVE_RATES, 4.0, 1e6, "0x1.0a8d991f7e734p-57"),
        (asymp_os_balanced, FIG5_EVE_RATES, 4.0, 1e6, "0x1.ddbe5b647f977p-61"),
        (asymp_ts_balanced, [0.5, 2.0], 1.0, 100.0, "0x1.bda5119ce0760p-12"),
        (asymp_os_balanced, [0.7, 1e-3, 40.0], 1.5, 3e4, "0x1.5b341ea7896e2p-31"),
        # (N-1)! past DBL_MAX; e_N(r) at r = 1e300 past DBL_MAX; a partial
        # product past DBL_MAX.
        (asymp_ts_balanced, [1.0] * 171, 2.0, 10.0, "0x1.5fe1d806e9b7fp+630"),
        (asymp_ts_balanced, [1e300, 3.0], 2.0**600, 1e200, "0x1.b150fa4f61760p-129"),
        (asymp_os_balanced, [1e-300] * 2 + [1e300] * 40, 4.0, 1e10, "0x1.4548c3da2b38bp+707"),
    ], ids=["ts-fig5", "os-fig5", "ts-rho-one", "os-three", "ts-factorial",
            "ts-series", "os-product"])
    def test_bits(self, f, rates, rho, mean_snr, bits):
        assert f(rates, rho, mean_snr).value.hex() == bits


class TestSnrGap:
    def test_hand_values(self):
        assert snr_gap_db(1.0, 0.5, 2.0) == pytest.approx(2.218487496163564, abs=1e-6)
        assert snr_gap_db(1.0, 0.5, 4.0) == pytest.approx(1.9629464537513657, abs=1e-6)

    def test_no_improvement_no_gap(self):
        assert snr_gap_db(0.7, 0.7, 3.0) == 0.0

    def test_strictly_decreasing_in_rho(self):
        rhos = [1.1, 1.5, 2.0, 4.0, 16.0]
        gaps = [snr_gap_db(2.0, 0.5, r) for r in rhos]
        assert all(b < a for a, b in zip(gaps, gaps[1:]))

    def test_rejects_worsening_eavesdropper(self):
        with pytest.raises(ConfigError):
            snr_gap_db(0.5, 1.0, 2.0)


class TestDiversityOrderEstimate:
    def test_exact_monomial_recovers_the_exponent(self):
        grid = np.arange(30.0, 61.0, 5.0)
        for n in (1, 2, 5):
            points = [(db, 0.37 * db_to_linear(db) ** -n) for db in grid]
            assert diversity_order_estimate(points, window_db=None) == pytest.approx(
                n, abs=1e-10
            )

    def test_single_branch_curve_fits_order_one(self):
        points = []
        for db in np.arange(40.0, 61.0, 5.0):
            hop_rate = 1.0 / db_to_linear(db)
            points.append(
                (db, single_relay_outage(RelayLinkParams(hop_rate, hop_rate, 1.0), 2.0).p)
            )
        assert diversity_order_estimate(points, window_db=None) == pytest.approx(1.0, abs=0.1)

    def test_best_selection_curve_fits_order_three(self):
        points = []
        for db in np.arange(45.0, 66.0, 5.0):
            hop_rate = 1.0 / db_to_linear(db)
            cfg = balanced_config(3, hop_rate, 1.0, 0.5)
            points.append((db, outage_os(cfg).p))
        assert diversity_order_estimate(points, window_db=None) == pytest.approx(3.0, abs=0.3)

    def test_default_window_drops_low_snr_bias(self):
        # corrupt the low-SNR end; the default top-20dB window must ignore it
        grid = np.arange(20.0, 61.0, 5.0)
        points = []
        for db in grid:
            p = 0.2 * db_to_linear(db) ** -2
            if db < 40.0:
                p = min(1.0, p * 50.0)
            points.append((db, p))
        windowed = diversity_order_estimate(points)
        assert windowed == pytest.approx(2.0, abs=1e-6)
        assert abs(diversity_order_estimate(points, window_db=None) - 2.0) > 0.2

    def test_rejections(self):
        with pytest.raises(ConfigError):
            diversity_order_estimate([(40.0, 0.1)])
        with pytest.raises(ConfigError):
            diversity_order_estimate([(40.0, 0.1), (50.0, 0.0)])
        with pytest.raises(ConfigError):
            diversity_order_estimate([(50.0, 0.1), (40.0, 0.2)])
