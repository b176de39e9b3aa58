import importlib
import math
import pkgutil
from dataclasses import fields, replace

import numpy as np
import pytest

import relaysec
from relaysec import (
    ALL_SCHEMES,
    ConfigError,
    RelayLinkParams,
    SelectionScheme,
    SystemConfig,
    db_to_linear,
    outage_for_scheme,
    parse_scheme,
    rho_of_rate,
    single,
    split_total_snr,
)
from relaysec import params


class TestRhoOfRate:
    def test_known_values(self):
        assert rho_of_rate(0.5) == 2.0
        assert rho_of_rate(1.0) == 4.0
        assert rho_of_rate(0.1) == pytest.approx(1.148698354997035, rel=1e-15)

    def test_strictly_increasing(self):
        rates = np.linspace(0.01, 4.0, 200)
        values = [rho_of_rate(r) for r in rates]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(v > 1.0 for v in values)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf, 512.0])
    def test_rejects_nonpositive_or_nonfinite(self, bad):
        with pytest.raises(ConfigError):
            rho_of_rate(bad)


class TestDecibels:
    def test_known_values(self):
        assert db_to_linear(0.0) == 1.0
        assert db_to_linear(20.0) == pytest.approx(100.0, rel=1e-15)
        assert db_to_linear(3.0) == pytest.approx(1.9952623149688795, rel=1e-15)

    def test_round_trip(self):
        rng = np.random.default_rng(1)
        for db in rng.uniform(-60, 60, size=200):
            back = 10.0 * math.log10(db_to_linear(db))
            assert back == pytest.approx(db, rel=1e-12, abs=1e-12)

    def test_rejects_nonfinite(self):
        for db in (math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigError, match="must be finite"):
                db_to_linear(db)

    @pytest.mark.parametrize("db", [3200.0, -3300.0], ids=["overflow", "underflow"])
    def test_rejects_a_ratio_outside_float64(self, db):
        with pytest.raises(ConfigError, match="outside the float64 range"):
            db_to_linear(db)
        with pytest.raises(ConfigError):
            RelayLinkParams.from_mean_snr_db(db, 10.0, 0.0)

    def test_extreme_but_representable_ratios_pass(self):
        assert db_to_linear(3000.0) == pytest.approx(1e300, rel=1e-12)
        assert db_to_linear(-3000.0) == pytest.approx(1e-300, rel=1e-12)


class TestSplitTotalSnr:
    def test_known_values(self):
        assert split_total_snr(100.0, 0.5) == (0.02, 0.02)
        sr, rd = split_total_snr(100.0, 0.3)
        assert sr == pytest.approx(1.0 / 30.0, rel=1e-15)
        assert rd == pytest.approx(1.0 / 70.0, rel=1e-15)
        assert split_total_snr(1.0, 0.5) == (2.0, 2.0)

    def test_conserves_total(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            total = float(rng.uniform(0.1, 1e6))
            frac = float(rng.uniform(0.01, 0.99))
            sr, rd = split_total_snr(total, frac)
            assert 1.0 / sr + 1.0 / rd == pytest.approx(total, rel=1e-12)

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.2, 1.3, math.nan])
    def test_rejects_bad_fraction(self, frac):
        with pytest.raises(ConfigError):
            split_total_snr(10.0, frac)


class TestRelayLinkParams:
    def test_main_rate_adds_the_hops(self):
        r = RelayLinkParams(0.25, 0.75, 2.0)
        assert r.main_rate == 1.0

    def test_from_mean_snr_db(self):
        r = RelayLinkParams.from_mean_snr_db(20.0, 10.0, 0.0)
        assert r.sr_rate == pytest.approx(0.01, rel=1e-12)
        assert r.rd_rate == pytest.approx(0.1, rel=1e-12)
        assert r.eve_rate == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_bad_rates(self, bad):
        with pytest.raises(ConfigError):
            RelayLinkParams(bad, 1.0, 1.0)
        with pytest.raises(ConfigError):
            RelayLinkParams(1.0, bad, 1.0)
        with pytest.raises(ConfigError):
            RelayLinkParams(1.0, 1.0, bad)

    def test_the_range_ends_are_the_converted_decibel_ends(self):
        # A literal 1e-30 would refuse 300 dB itself: 10.0**30 rounds up.
        assert params._MIN_RATE == 1.0 / db_to_linear(300.0) < 1e-30
        assert params._MAX_RATE == 1.0 / db_to_linear(-300.0)

    @pytest.mark.parametrize("link", range(3), ids=["sr", "rd", "eve"])
    @pytest.mark.parametrize("db", [300.0, -300.0])
    def test_every_link_is_accepted_at_either_end_of_the_range(self, link, db):
        levels = [10.0, 10.0, 0.0]
        levels[link] = db
        r = RelayLinkParams.from_mean_snr_db(*levels)
        assert (r.sr_rate, r.rd_rate, r.eve_rate)[link] in (params._MIN_RATE, params._MAX_RATE)

    @pytest.mark.parametrize("link", ["sr_rate", "rd_rate", "eve_rate"])
    @pytest.mark.parametrize("db", [300.01, -300.01, 3000.0, -3000.0])
    def test_a_link_outside_the_range_is_refused_naming_it(self, link, db):
        levels = {"sr_rate": 10.0, "rd_rate": 10.0, "eve_rate": 0.0, link: db}
        with pytest.raises(ConfigError, match=rf"^{link} .* within ±300 dB, got"):
            RelayLinkParams.from_mean_snr_db(*levels.values())


class TestSystemConfig:
    def test_rho_exceeds_one(self):
        cfg = SystemConfig((RelayLinkParams(1, 1, 1),), rate_rs=0.25)
        assert cfg.rho == pytest.approx(2.0**0.5)
        assert cfg.rho > 1.0

    def test_rho_is_derived_once_per_config(self, monkeypatch):
        calls = []

        def counted(rate_rs):
            calls.append(rate_rs)
            return rho_of_rate(rate_rs)

        monkeypatch.setattr(params, "rho_of_rate", counted)
        cfg = SystemConfig((RelayLinkParams(1, 1, 1), RelayLinkParams(2, 1, 3)), rate_rs=0.5)
        for scheme in ALL_SCHEMES:
            outage_for_scheme(cfg, scheme)
        assert cfg.rho == 2.0 and calls == [0.5]
        # A copy with another rate derives its own.
        assert replace(cfg, rate_rs=1.0).rho == 4.0 and calls == [0.5, 1.0]

    def test_rho_is_neither_compared_nor_shown(self):
        cfg = SystemConfig((RelayLinkParams(1, 1, 1),), rate_rs=0.5)
        assert [f.name for f in fields(cfg) if f.compare] == ["relays", "rate_rs"]
        assert "rho" not in repr(cfg)
        assert cfg == SystemConfig((RelayLinkParams(1, 1, 1),), rate_rs=0.5)
        with pytest.raises(TypeError):
            SystemConfig((RelayLinkParams(1, 1, 1),), rate_rs=0.5, rho=2.0)

    def test_rejects_empty_or_bad_rate(self):
        with pytest.raises(ConfigError):
            SystemConfig((), rate_rs=0.5)
        with pytest.raises(ConfigError):
            SystemConfig((RelayLinkParams(1, 1, 1),), rate_rs=0.0)
        with pytest.raises(ConfigError):
            SystemConfig((RelayLinkParams(1, 1, 1),), rate_rs=600.0)


class TestSelectionScheme:
    def test_labels_and_parsing(self):
        for label in ("OS", "TS", "SS-RE", "SS-RD", "SS-SR", "PS"):
            assert parse_scheme(label).label == label
        assert parse_scheme("ss_rd").label == "SS-RD"
        assert parse_scheme("single:3") == single(3)

    def test_single_requires_valid_index(self):
        with pytest.raises(ConfigError):
            SelectionScheme("SINGLE")
        with pytest.raises(ConfigError):
            single(0)
        cfg = SystemConfig((RelayLinkParams(1, 1, 1),), 0.5)
        with pytest.raises(ConfigError):
            single(2).validate_for(cfg)
        single(1).validate_for(cfg)

    def test_rejects_unknown(self):
        with pytest.raises(ConfigError):
            parse_scheme("BEST")


@pytest.mark.parametrize(
    "module",
    ["relaysec"] + [f"relaysec.{m.name}" for m in pkgutil.iter_modules(relaysec.__path__)],
)
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_exports_each_module_name_once():
    modules = [importlib.import_module(f"relaysec.{m.name}")
               for m in pkgutil.iter_modules(relaysec.__path__)]
    joined = [name for mod in modules for name in getattr(mod, "__all__", ())]
    assert sorted(relaysec.__all__) == sorted(joined)
    assert len(set(joined)) == len(joined)


def test_params_star_import_binds_both_error_types():
    namespace = {}
    exec("from relaysec.params import *", namespace)
    assert namespace["ConfigError"] is relaysec.ConfigError
    assert namespace["CancellationError"] is relaysec.CancellationError
    assert issubclass(namespace["ConfigError"], ValueError)
    assert issubclass(namespace["CancellationError"], ArithmeticError)
