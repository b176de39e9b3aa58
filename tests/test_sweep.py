import csv
import functools
import hashlib
import json
import math
import re
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import pytest

import relaysec
from relaysec import (
    ALL_SCHEMES,
    TS,
    RelayLinkParams,
    SweepSpec,
    SystemConfig,
    asymp_single_balanced,
    db_to_linear,
    figure_preset,
    run_manifest,
    run_sweep,
    simulate_outage,
    single,
    single_relay_outage,
)
from relaysec import SignedSubsetTerm, cli, closedform, sweep
from relaysec.cli import main
from relaysec.params import ConfigError, parse_scheme
from relaysec.sweep import CSV_HEADER, FixedHop, _build_config, _cell_seed, render_csv


def single_relay_spec(**overrides):
    base = dict(
        snr_grid_db=(20.0, 40.0, 60.0),
        rates=(0.5,),
        schemes=(single(1),),
        n_relays=1,
        eaves_snr_db=0.0,
    )
    base.update(overrides)
    return SweepSpec(**base)


# Each integer-valued input, built from a value: a spec's counts and seed, a
# pinned relay index, and a simulation's trial count.
INTEGER_FIELDS = {
    "n_relays": lambda v: single_relay_spec(n_relays=v).n_relays,
    "mc_trials": lambda v: single_relay_spec(mc_trials=v).mc_trials,
    "seed": lambda v: single_relay_spec(seed=v).seed,
    "relay": lambda v: single(v).relay,
    "trials": lambda v: simulate_outage(
        SystemConfig((RelayLinkParams(1.0, 1.0, 1.0),), 0.5), single(1), v, 0
    ).trials,
}


class TestSweepSpecValidation:
    @pytest.mark.parametrize("field", sorted(INTEGER_FIELDS))
    def test_counts_must_be_integral(self, field):
        build = INTEGER_FIELDS[field]
        for value in (2.5, math.inf, math.nan):
            with pytest.raises(ConfigError, match=f"{field} must be an integer"):
                build(value)
        got = build(2.0)
        assert got == 2 and type(got) is int

    def test_rejects_unordered_grid(self):
        with pytest.raises(ConfigError):
            single_relay_spec(snr_grid_db=(10.0, 10.0))
        with pytest.raises(ConfigError):
            single_relay_spec(snr_grid_db=())

    def test_rejects_arity_mismatches(self):
        with pytest.raises(ConfigError):
            single_relay_spec(eaves_snr_db=(0.0, 3.0))  # two values, one relay
        with pytest.raises(ConfigError):
            single_relay_spec(power_split_sr=(0.3, 0.7))  # two splits, one rate
        with pytest.raises(ConfigError):
            single_relay_spec(schemes=(single(2),))

    def test_rejects_a_repeated_scheme(self):
        with pytest.raises(ConfigError, match=r"schemes must not repeat: \['TS', 'TS'\]"):
            single_relay_spec(schemes=(TS, TS))

    def test_round_trips_through_dict(self):
        spec = SweepSpec(
            snr_grid_db=(0.0, 10.0),
            rates=(0.1, 1.0),
            schemes=ALL_SCHEMES,
            n_relays=4,
            power_split_sr=(0.3, 0.7),
            eaves_snr_db=(0.0, 3.0, 6.0, 9.0),
            mc_trials=100,
            seed=7,
            fixed_hop=None,
        )
        assert SweepSpec.from_dict(spec.to_dict()) == spec

    def test_rejects_a_rate_past_the_rho_range(self):
        # Refused when the spec is built, before any cell is computed.
        with pytest.raises(ConfigError, match="below 512"):
            single_relay_spec(rates=(0.5, 600.0))

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            SweepSpec.from_dict({"snr_grid_db": [0.0], "rates": [1.0], "schemes": ["OS"], "noise": 1})


# Spec inputs refused when the spec is built, as fields over a valid
# one-relay spec: each also makes `relaysec sweep` exit 2.
REFUSED_SPECS = {
    "empty grid": {"snr_grid_db": []},
    "unordered grid": {"snr_grid_db": [10.0, 10.0]},
    "nan grid": {"snr_grid_db": [0.0, math.nan]},
    "grid past float64": {"snr_grid_db": [0.0, 4000.0]},
    "empty rates": {"rates": []},
    "zero rate": {"rates": [0.0]},
    "infinite rate": {"rates": [0.5, math.inf]},
    "rate 512": {"rates": [512.0]},
    "no schemes": {"schemes": []},
    "unknown scheme": {"schemes": ["BEST"]},
    "repeated scheme": {"schemes": ["TS", "ts", "OS"]},
    "relay past n_relays": {"schemes": ["SINGLE:2"]},
    "zero relays": {"n_relays": 0},
    "fractional relays": {"n_relays": 2.5},
    "split 0": {"power_split_sr": 0.0},
    "split 1": {"power_split_sr": [1.0]},
    "split nan": {"power_split_sr": math.nan},
    "two splits, one rate": {"power_split_sr": [0.3, 0.7]},
    "two eavesdroppers, one relay": {"eaves_snr_db": [0.0, 3.0]},
    "nan eavesdropper": {"eaves_snr_db": math.nan},
    "eavesdropper +4000 dB": {"eaves_snr_db": 4000.0},
    "eavesdropper -4000 dB": {"eaves_snr_db": [-4000.0]},
    "unknown pinned hop": {"fixed_hop": {"which": "SD", "snr_db": 30.0}},
    "nan pinned hop": {"fixed_hop": {"which": "SR", "snr_db": math.nan}},
    "pinned hop +4000 dB": {"fixed_hop": {"which": "SR", "snr_db": 4000.0}},
    "pinned hop -4000 dB": {"fixed_hop": {"which": "RD", "snr_db": -4000.0}},
    "pinned hop without level": {"fixed_hop": {"which": "SR"}},
    "negative trials": {"mc_trials": -1},
    "negative seed": {"seed": -1},
    "seed past 64 bits": {"seed": 2**64},
    "unknown field": {"noise": 1.0},
    # A level db_to_linear takes, whose cell has a link outside ±300 dB.
    "grid past the range": {"snr_grid_db": [0.0, 304.0]},
    "grid below the range": {"snr_grid_db": [-300.0, 0.0]},
    "grid past the range, hop pinned": {"snr_grid_db": [0.0, 300.01],
                                        "fixed_hop": {"which": "SR", "snr_db": 30.0}},
    "eavesdropper past the range": {"eaves_snr_db": 300.01},
    "eavesdropper below the range": {"n_relays": 2, "eaves_snr_db": [0.0, -300.01]},
    "pinned hop past the range": {"fixed_hop": {"which": "SR", "snr_db": 300.01}},
    "pinned hop below the range": {"fixed_hop": {"which": "RD", "snr_db": -300.01}},
    "second rate's split leaves the range": {
        "snr_grid_db": [-270.0, 0.0], "rates": [0.5, 1.0], "power_split_sr": [0.5, 0.9999]},
}

# Each dB level a sweep spec takes, as fields over a valid one-relay spec that
# put `level` in it: scalar and list forms, a bad entry first or later.
DB_FIELD_FORMS = {
    "snr_grid_db": [
        lambda level: {"snr_grid_db": [level]},
        # The grid ascends, so a level below the float64 range leads it.
        lambda level: {"snr_grid_db": [level, 0.0] if level < 0.0 else [0.0, level]},
    ],
    "eaves_snr_db": [
        lambda level: {"eaves_snr_db": level},
        lambda level: {"eaves_snr_db": [level]},
        lambda level: {"n_relays": 2, "eaves_snr_db": [0.0, level]},
    ],
    "fixed_hop.snr_db": [lambda level: {"fixed_hop": {"which": "SR", "snr_db": level}}],
}


# System configs refused when built, as fields over a valid two-relay config:
# each makes `relaysec outage` exit 2.
REFUSED_CONFIGS = {
    "no relays": {"relays": []},
    "zero rate": {"rate_rs": 0.0},
    "rate 512": {"rate_rs": 512.0},
    "nan rate": {"rate_rs": math.nan},
    "hop past float64": {"relays": [{"sr_snr_db": 3200.0, "rd_snr_db": 0.0, "eve_snr_db": 0.0}]},
    "eavesdropper below float64": {
        "relays": [{"sr_snr_db": 0.0, "rd_snr_db": 0.0, "eve_snr_db": -3300.0}]},
    "relay without eavesdropper": {"relays": [{"sr_snr_db": 0.0, "rd_snr_db": 0.0}]},
    "hop past the range": {"relays": [{"sr_snr_db": 300.01, "rd_snr_db": 0.0, "eve_snr_db": 0.0}]},
    "eavesdropper below the range": {
        "relays": [{"sr_snr_db": 0.0, "rd_snr_db": 0.0, "eve_snr_db": -300.01}]},
    "missing rate": {"rate_rs": None},
}


# JSON values of the wrong type where a number or a list of numbers belongs,
# as (command, fields, the field the refusal names): a sweep spec's fields go
# over a valid one-relay spec, a system config's over a valid two-relay one.
_HOP = {"sr_snr_db": 10.0, "rd_snr_db": 10.0, "eve_snr_db": 3.0}
MISTYPED_INPUTS = {
    "grid as a string": ("sweep", {"snr_grid_db": "05"}, "snr_grid_db"),
    "grid entry as a bool": ("sweep", {"snr_grid_db": [True, 10.0]}, "snr_grid_db"),
    "rates as a string": ("sweep", {"rates": "12"}, "rates"),
    "rate as a string": ("sweep", {"rates": ["0.5"]}, "rates"),
    "schemes as a string": ("sweep", {"schemes": "OS"}, "schemes"),
    "trials as a bool": ("sweep", {"mc_trials": True}, "mc_trials"),
    "relay count as a bool": ("sweep", {"n_relays": True}, "n_relays"),
    "seed as a bool": ("sweep", {"seed": False}, "seed"),
    "split as a string": ("sweep", {"power_split_sr": "0.5"}, "power_split_sr"),
    "split entry as a string": ("sweep", {"power_split_sr": ["0.5"]}, "power_split_sr"),
    "eavesdropper as a string": ("sweep", {"eaves_snr_db": "3"}, "eaves_snr_db"),
    "eavesdropper entry as a bool": ("sweep", {"eaves_snr_db": [False]}, "eaves_snr_db"),
    "pinned hop as a string": (
        "sweep", {"fixed_hop": {"which": "SR", "snr_db": "30"}}, "fixed_hop.snr_db"),
    "target rate as a bool": ("outage", {"rate_rs": True}, "rate_rs"),
    "target rate as a string": ("outage", {"rate_rs": "0.5"}, "rate_rs"),
    "hop as a string": (
        "outage", {"relays": [_HOP, {**_HOP, "sr_snr_db": "10"}]}, "relays[1].sr_snr_db"),
    "eavesdropper level as a bool": (
        "outage", {"relays": [{**_HOP, "eve_snr_db": False}]}, "relays[0].eve_snr_db"),
}

# Keys no field takes, as (command, fields, the refusal), laid over inputs as
# in MISTYPED_INPUTS.  A sweep spec's own unknown field is in REFUSED_SPECS.
UNKNOWN_KEYS = {
    "system config": ("outage", {"rate": 2.0}, "unknown system config fields: ['rate']"),
    "relay entry": ("outage", {"relays": [_HOP, {**_HOP, "eve_snr": 30.0, "eve_db": 3.0}]},
                    "unknown relays[1] fields: ['eve_db', 'eve_snr']"),
    "pinned hop": ("sweep", {"fixed_hop": {"which": "SR", "snr_db": 30.0, "level_db": 5.0}},
                   "unknown fixed_hop fields: ['level_db']"),
}


class TestRefusals:
    """Every input is refused where it enters, and the CLI exits 2 for it."""

    @pytest.mark.parametrize("fields", REFUSED_SPECS.values(), ids=REFUSED_SPECS)
    def test_spec_is_refused_when_built(self, tmp_path, capsys, fields):
        spec = {"snr_grid_db": [10.0], "rates": [0.5], "schemes": ["OS"], **fields}
        with pytest.raises(ConfigError):
            SweepSpec.from_dict(spec)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", str(spec_path), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("name", [k for k in REFUSED_SPECS if "the range" in k])
    def test_a_cell_outside_the_range_is_named(self, name):
        spec = {"snr_grid_db": [10.0], "rates": [0.5], "schemes": ["OS"], **REFUSED_SPECS[name]}
        with pytest.raises(ConfigError, match=r"^cell at rate_rs .*, .* dB: \w+_rate .* ±300 dB"):
            SweepSpec.from_dict(spec)

    @pytest.mark.parametrize("fields", [
        # Balanced 303 dB puts each hop at 300 - 10 log10(2) dB at split 0.5.
        {"snr_grid_db": [-296.0, 303.0], "n_relays": 2, "eaves_snr_db": [-300.0, 300.0]},
        # A pinned hop and the grid reach both ends.
        {"snr_grid_db": [-300.0, 300.0], "fixed_hop": {"which": "SR", "snr_db": 300.0},
         "eaves_snr_db": -300.0},
        {"snr_grid_db": [-300.0, 300.0], "fixed_hop": {"which": "RD", "snr_db": -300.0}},
    ], ids=["balanced", "sr-pinned", "rd-pinned"])
    def test_specs_at_the_range_corners_build(self, fields):
        spec = SweepSpec.from_dict({"rates": [1e-17, 0.5, 511.0], "schemes": ["OS"], **fields})
        assert spec.snr_grid_db == tuple(fields["snr_grid_db"])

    @pytest.mark.parametrize("field", DB_FIELD_FORMS)
    @pytest.mark.parametrize("level, reason", [
        (math.nan, "dB value must be finite, got nan"),
        (4000.0, "dB value 4000.0 is outside the float64 range"),
        (-4000.0, "dB value -4000.0 is outside the float64 range"),
    ], ids=["nan", "+4000", "-4000"])
    def test_db_level_error_names_its_field(self, tmp_path, capsys, field, level, reason):
        message = f"{field}: {reason}"
        for form in DB_FIELD_FORMS[field]:
            spec = {"snr_grid_db": [10.0], "rates": [0.5], "schemes": ["OS"], **form(level)}
            with pytest.raises(ConfigError) as refused:
                SweepSpec.from_dict(spec)
            assert str(refused.value) == message, spec
            spec_path = tmp_path / "spec.json"
            spec_path.write_text(json.dumps(spec))
            assert main(["sweep", "--config", str(spec_path), "--out", str(tmp_path / "x.csv")]) == 2
            assert capsys.readouterr().err == f"error: {message}\n", spec

    @pytest.mark.parametrize("command, fields, field", MISTYPED_INPUTS.values(), ids=MISTYPED_INPUTS)
    def test_a_mistyped_number_is_refused_by_name(self, tmp_path, capsys, command, fields, field):
        # Neither parsed from a string, nor read as 0 or 1 from a bool.
        message = rf"{re.escape(field)} (entry )?must be (a number|an integer|a list of)\b"
        self.assert_refused(tmp_path, capsys, command, fields, message)

    @pytest.mark.parametrize("command, fields, message", UNKNOWN_KEYS.values(), ids=UNKNOWN_KEYS)
    def test_an_unknown_key_is_refused_by_name(self, tmp_path, capsys, command, fields, message):
        self.assert_refused(tmp_path, capsys, command, fields, re.escape(message) + "$")

    @staticmethod
    def assert_refused(tmp_path, capsys, command, fields, message):
        """`fields` over a valid sweep spec or system config raise ConfigError
        matching `message` when built, and each command reading them exits 2
        with it."""
        path = tmp_path / "input.json"
        if command == "sweep":
            data = {"snr_grid_db": [10.0], "rates": [0.5], "schemes": ["OS"], **fields}
            with pytest.raises(ConfigError, match=f"^{message}"):
                SweepSpec.from_dict(data)
            argvs = [["sweep", "--out", str(tmp_path / "x.csv")]]
        else:
            data = {"relays": [_HOP] * 2, "rate_rs": 0.5, **fields}
            argvs = [["outage"], ["simulate", "--trials", "10", "--seed", "1"]]
        path.write_text(json.dumps(data))
        for argv in argvs:
            assert main(argv + ["--config", str(path)]) == 2
            assert re.match(f"error: {message}", capsys.readouterr().err), argv

    @pytest.mark.parametrize("fields", REFUSED_CONFIGS.values(), ids=REFUSED_CONFIGS)
    def test_system_config_is_refused(self, tmp_path, capsys, fields):
        relays = [{"sr_snr_db": 10.0, "rd_snr_db": 10.0, "eve_snr_db": 3.0}] * 2
        cfg = {k: v for k, v in {"relays": relays, "rate_rs": 0.5, **fields}.items()
               if v is not None}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        for argv in (["outage"], ["simulate", "--trials", "10", "--seed", "1"]):
            assert main(argv + ["--config", str(path)]) == 2
            assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["gap", "6", "3", "0.5"],  # the eavesdropper got worse
        ["gap", "3", "6", "0"],
        ["gap", "3", "6", "600"],
        ["gap", "nan", "6", "0.5"],
        ["gap", "3", "4000", "0.5"],
        ["simulate", "--trials", "0", "--seed", "1"],
        ["simulate", "--trials", "10", "--seed", "-1"],
        ["simulate", "--trials", "10", "--seed", "1", "--scheme", "SINGLE:3"],
    ], ids=" ".join)
    def test_cli_value_exits_2(self, tmp_path, capsys, argv):
        if argv[0] == "simulate":
            path = tmp_path / "cfg.json"
            relays = [{"sr_snr_db": 10.0, "rd_snr_db": 10.0, "eve_snr_db": 3.0}] * 2
            path.write_text(json.dumps({"relays": relays, "rate_rs": 0.5}))
            argv = argv + ["--config", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestRunSweep:
    def test_single_relay_rows_carry_closed_form_and_expansion(self):
        rows = run_sweep(single_relay_spec())
        assert len(rows) == 3
        for row, grid_db in zip(rows, (20.0, 40.0, 60.0)):
            total = db_to_linear(grid_db)
            relay = RelayLinkParams(1.0 / (0.5 * total), 1.0 / (0.5 * total), 1.0)
            assert row.p_closed == pytest.approx(single_relay_outage(relay, 2.0).p, rel=1e-12, abs=0.0)
            expected = asymp_single_balanced(1.0, 2.0, 0.5 * total).value
            assert row.p_asymp == pytest.approx(expected, rel=1e-12, abs=0.0)
            assert row.p_mc is None and row.mc_stderr is None and row.floor is None

    def test_simulation_disabled_by_zero_trials(self):
        rows = run_sweep(single_relay_spec(mc_trials=0))
        assert all(r.p_mc is None for r in rows)

    def test_simulation_columns_present_when_enabled(self):
        rows = run_sweep(single_relay_spec(mc_trials=2000, seed=5))
        assert all(r.p_mc is not None and r.mc_stderr is not None for r in rows)
        assert all(0.0 <= r.p_mc <= 1.0 for r in rows)

    def test_fixed_hop_rows_carry_the_floor(self):
        spec = single_relay_spec(fixed_hop=FixedHop("SR", 25.0))
        rows = run_sweep(spec)
        for row in rows:
            assert row.floor is not None
            assert row.p_asymp is not None
            assert row.p_asymp > row.floor

    def test_cell_seeds_are_independent(self):
        rows_a = run_sweep(single_relay_spec(mc_trials=500, seed=1))
        rows_b = run_sweep(single_relay_spec(mc_trials=500, seed=2))
        assert any(a.p_mc != b.p_mc for a, b in zip(rows_a, rows_b))

    def test_rd_pinned_hop_mirrors_sr_pinned_hop(self):
        sr_rows = run_sweep(single_relay_spec(fixed_hop=FixedHop("SR", 25.0)))
        rd_rows = run_sweep(single_relay_spec(fixed_hop=FixedHop("RD", 25.0)))
        for a, b in zip(sr_rows, rd_rows):
            assert a.p_closed == pytest.approx(b.p_closed, abs=1e-15)
            assert a.floor == pytest.approx(b.floor, abs=1e-15)

    def test_multi_relay_unbalanced_rows_carry_only_the_floor_for_os(self):
        spec = SweepSpec(
            snr_grid_db=(30.0, 50.0),
            rates=(0.5,),
            schemes=ALL_SCHEMES,
            n_relays=2,
            eaves_snr_db=6.0,
            fixed_hop=FixedHop("SR", 25.0),
        )
        rows = {(r.scheme, r.snr_db): r for r in run_sweep(spec)}
        os_row = rows[("OS", 50.0)]
        assert os_row.floor is not None and os_row.p_asymp is None
        ts_row = rows[("TS", 50.0)]
        assert ts_row.floor is None and ts_row.p_asymp is None


class TestCurveSimulation:
    """A simulated sweep runs one simulation per scheme over all its (rate,
    grid) cells, seeded as the scheme's first cell, on uniforms shared by
    every cell."""

    spec = SweepSpec(
        snr_grid_db=(0.0, 10.0, 20.0),
        rates=(0.5, 1.0),
        schemes=ALL_SCHEMES[:2],
        n_relays=2,
        power_split_sr=(0.3, 0.7),
        eaves_snr_db=(0.0, 3.0),
        mc_trials=700,
        seed=11,
    )

    @pytest.fixture
    def calls(self, monkeypatch):
        made, original = [], sweep.simulate_outage

        def recorded(*args):
            made.append(args)
            return original(*args)

        monkeypatch.setattr(sweep, "simulate_outage", recorded)
        return made

    def test_one_simulation_per_scheme(self, calls):
        rows = run_sweep(self.spec)
        cells = [(rate, self.spec.split_for_rate(ri), db)
                 for ri, rate in enumerate(self.spec.rates) for db in self.spec.snr_grid_db]
        eves = self.spec.eve_rates()
        assert len(calls) == len(self.spec.schemes)
        for (cfgs, scheme, trials, seed), expected in zip(calls, self.spec.schemes):
            assert scheme == expected and trials == 700
            # Rate-major, so the first rate's cells come first.
            assert list(cfgs) == [_build_config(self.spec, eves, *cell) for cell in cells]
            # The seed the scheme's first cell had on its own substream.
            text = f"11:{scheme.label}:0:0".encode()
            assert seed == _cell_seed(11, scheme.label)
            assert seed == int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")
        assert len(rows) == len(calls) * len(cells)

    def test_no_simulation_without_trials(self, calls):
        rows = run_sweep(replace(self.spec, mc_trials=0))
        assert calls == [] and all(r.p_mc is None for r in rows)

    def test_cells_match_single_config_calls_at_the_scheme_seed(self):
        for k, row in enumerate(run_sweep(self.spec)):
            ri = self.spec.rates.index(row.rate_rs)
            cfg = _build_config(self.spec, self.spec.eve_rates(), row.rate_rs,
                                self.spec.split_for_rate(ri), row.snr_db)
            est = simulate_outage(cfg, parse_scheme(row.scheme), 700, _cell_seed(11, row.scheme))
            assert (row.p_mc, row.mc_stderr) == (est.p_hat, est.std_err), k

    def test_fig5_first_rate_rows_match_the_pinned_digest(self):
        # The first rate's cells lead each scheme's call, so their rows are
        # those of one call per (scheme, rate) curve.
        (_, spec), = figure_preset("fig5")
        first = [line for line in _fig5_csv().splitlines()[1:] if line.split(",")[1] == "0.1"]
        assert len(first) == len(ALL_SCHEMES) * len(spec.snr_grid_db)
        digest = hashlib.sha256(("\n".join(first) + "\n").encode()).hexdigest()
        assert digest == _FIG5_RATE_01_SHA256

    def test_fig5_csv_matches_the_pinned_digest(self):
        assert hashlib.sha256(_fig5_csv().encode()).hexdigest() == _FIG5_SHA256

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_fig5_simulated_curves_never_rise_with_snr(self, seed):
        # fig5 is balanced: every relay's hops scale together, so a trial's
        # chosen relay stays put along a curve and, on shared uniforms, its
        # outage can only clear as the SNR grows.  With a pinned hop the
        # chosen relay can move and a curve may rise.
        (_, spec), = figure_preset("fig5")
        rows = run_sweep(replace(spec, mc_trials=4000, seed=seed))
        curves = {}
        for row in rows:
            curves.setdefault((row.scheme, row.rate_rs), []).append((row.snr_db, row.p_mc))
        for key, points in curves.items():
            p_mc = [p for _, p in sorted(points)]
            assert all(b <= a for a, b in zip(p_mc, p_mc[1:])), (key, p_mc)


# sha256 of the rate-0.1 rows, each ending in a newline, of `relaysec figure
# fig5 --trials 100000 --seed 1`, recorded when each (scheme, rate) curve was
# simulated in its own call, and re-recorded when the TS expansion dropped
# the published expression's redundant relay sum: only TS p_asymp moved,
# each by a factor N = 4.
_FIG5_RATE_01_SHA256 = "7979c6d3a3989dd6b4e1a552a9c21c82227a32be8a673bace687ce6d3b75249a"
# sha256 of that command's whole CSV, both rates, recorded when each scheme's
# cells over both rates were simulated in one call, and re-recorded when only
# TS p_asymp moved, each by a factor N = 4, as above.
_FIG5_SHA256 = "24b8453323567669932eb5a3454c465d22325272f31d7ddba7771975a3503019"


@functools.lru_cache(maxsize=1)
def _fig5_csv() -> str:
    """The CSV of `relaysec figure fig5 --trials 100000 --seed 1`."""
    (_, spec), = figure_preset("fig5")
    return render_csv(run_sweep(replace(spec, mc_trials=100_000, seed=1)))


class TestFigurePresets:
    def test_fig2_family(self):
        family = figure_preset("fig2")
        assert [label for label, _ in family] == ["eve3dB", "eve6dB"]
        for (label, spec), eve in zip(family, (3.0, 6.0)):
            assert spec.n_relays == 1
            assert spec.rates == (0.1, 1.0, 2.0)
            assert spec.power_split_sr == 0.5
            assert spec.eaves_snr_db == eve
            assert spec.schemes == (single(1),)
            assert spec.fixed_hop is None

    def test_fig3_family(self):
        family = figure_preset("fig3")
        assert [label for label, _ in family] == [
            "srfixed25dB",
            "srfixed30dB",
            "srfixed35dB",
        ]
        for (label, spec), pinned in zip(family, (25.0, 30.0, 35.0)):
            assert spec.fixed_hop == FixedHop("SR", pinned)
            assert spec.eaves_snr_db == 6.0
            assert spec.rates == (0.1, 1.0, 2.0)
            assert spec.n_relays == 1

    def test_fig4_family(self):
        family = figure_preset("fig4")
        assert [label for label, _ in family] == ["n2", "n4"]
        for (label, spec), n in zip(family, (2, 4)):
            assert spec.n_relays == n
            assert spec.rates == (1.0,)
            assert spec.eaves_snr_db == 3.0
            assert spec.power_split_sr == 0.5
            assert spec.schemes == ALL_SCHEMES

    def test_fig5_single_variant(self):
        family = figure_preset("fig5")
        assert len(family) == 1
        label, spec = family[0]
        assert label == ""
        assert spec.n_relays == 4
        assert spec.eaves_snr_db == (0.0, 3.0, 6.0, 9.0)
        assert spec.rates == (0.1, 1.0)
        assert spec.power_split_sr == (0.3, 0.7)
        assert spec.schemes == ALL_SCHEMES

    def test_unknown_preset_rejected(self):
        with pytest.raises(ConfigError):
            figure_preset("fig9")


class TestCsvEmission:
    @staticmethod
    def sweep_csv(tmp_path, spec):
        """The bytes `relaysec sweep --out` writes for the spec."""
        spec_path, out = tmp_path / "spec.json", tmp_path / "out.csv"
        spec_path.write_text(json.dumps(spec.to_dict()))
        assert main(["sweep", "--config", str(spec_path), "--out", str(out)]) == 0
        return out.read_bytes()

    def test_header_only_for_empty_rows(self, tmp_path, monkeypatch):
        # Every accepted spec has a cell, so the sweep is stubbed to none.
        monkeypatch.setattr(cli, "run_sweep", lambda spec: [])
        data = self.sweep_csv(tmp_path, single_relay_spec())
        assert data == (",".join(CSV_HEADER) + "\n").encode("utf-8")

    def test_two_line_file_for_one_row(self, tmp_path):
        text = self.sweep_csv(tmp_path, single_relay_spec(snr_grid_db=(20.0,))).decode("utf-8")
        lines = text.split("\n")
        # Two LF-terminated lines and no CR.
        assert len(lines) == 3 and lines[2] == "" and "\r" not in text
        assert lines[0] == ",".join(CSV_HEADER)
        assert lines[1].startswith("SINGLE:1,0.5,20.0,")

    def test_rows_sorted_and_round_trip_exactly(self):
        spec = SweepSpec(
            snr_grid_db=(10.0, 20.0),
            rates=(0.5, 1.0),
            schemes=ALL_SCHEMES,
            n_relays=2,
            eaves_snr_db=3.0,
            mc_trials=400,
            seed=11,
        )
        rows = run_sweep(spec)
        text = render_csv(rows)
        parsed = list(csv.DictReader(text.splitlines()))
        keys = [(r["scheme"], float(r["rate_rs"]), float(r["snr_db"])) for r in parsed]
        assert keys == sorted(keys)
        by_key = {
            (r.scheme, r.rate_rs, r.snr_db): r for r in rows
        }
        for rec in parsed:
            row = by_key[(rec["scheme"], float(rec["rate_rs"]), float(rec["snr_db"]))]
            assert float(rec["p_closed"]) == row.p_closed
            assert float(rec["p_mc"]) == row.p_mc
            assert float(rec["mc_stderr"]) == row.mc_stderr
            if rec["p_asymp"]:
                assert float(rec["p_asymp"]) == row.p_asymp
            else:
                assert row.p_asymp is None

    def test_rerun_is_byte_identical(self):
        spec = single_relay_spec(mc_trials=1500, seed=77)
        assert render_csv(run_sweep(spec)) == render_csv(run_sweep(spec))

    def test_high_snr_closed_form_curves_match_the_pinned_digest(self):
        # Closed forms only, one curve per (scheme, N, rate): N = 4 and 8 at
        # rates 0.5/2.0 with source-relay splits 0.3/0.7, N = 10 at rate 0.5
        # with split 0.3, 0-80 dB in 10 dB steps, eavesdroppers spread evenly
        # over 0-9 dB.  The digest was re-recorded when relay counts above six
        # moved from the float64 subset sum to the product-form integral (74
        # cells, all N = 8 or 10, moved by at most 1.2e-12 relative), and
        # again when every relay of a cell moved onto one integration grid
        # with its own Gauss-Legendre rule (119 cells moved; against a
        # 150-digit subset sum the worst of them went from 1.2e-12 to 5.5e-16
        # relative); any later change must keep every p_closed bit for bit.
        # It was re-recorded once more when the TS expansion dropped the
        # published expression's redundant relay sum: only TS p_asymp moved
        # (45 cells), each by a factor N.
        families = ((4, (0.5, 2.0), (0.3, 0.7)), (8, (0.5, 2.0), (0.3, 0.7)), (10, (0.5,), (0.3,)))
        digest = hashlib.sha256()
        for scheme in ALL_SCHEMES:
            for n, rates, splits in families:
                for rate, split in zip(rates, splits):
                    spec = SweepSpec(
                        snr_grid_db=tuple(float(x) for x in range(0, 81, 10)),
                        rates=(rate,),
                        schemes=(scheme,),
                        n_relays=n,
                        power_split_sr=split,
                        eaves_snr_db=tuple(9.0 * i / (n - 1) for i in range(n)),
                    )
                    digest.update(render_csv(run_sweep(spec)).encode("utf-8"))
        assert digest.hexdigest() == (
            "1bf88692a88290b9610028935b9c8135c7c4fa954c0d1ae0716967b32df1db8a"
        )


class TestManifest:
    def test_records_seed_and_resolved_spec(self):
        spec = single_relay_spec(mc_trials=300, seed=123)
        rows = run_sweep(spec)
        manifest = run_manifest(spec, "0.1.0", rows)
        assert manifest["seed"] == 123
        assert manifest["spec"]["snr_grid_db"] == [20.0, 40.0, 60.0]
        assert manifest["row_count"] == len(rows)
        assert manifest["mc_agreement_max_z"] > 0.0

    def test_agreement_absent_without_simulation(self):
        spec = single_relay_spec()
        manifest = run_manifest(spec, "0.1.0", run_sweep(spec))
        assert manifest["mc_agreement_max_z"] is None


class TestCli:
    def write_config(self, tmp_path):
        cfg = {
            "relays": [
                {"sr_snr_db": 10.0, "rd_snr_db": 10.0, "eve_snr_db": 3.0},
                {"sr_snr_db": 8.0, "rd_snr_db": 12.0, "eve_snr_db": 6.0},
            ],
            "rate_rs": 0.5,
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_outage_command(self, tmp_path, capsys):
        code = main(["outage", "--config", str(self.write_config(tmp_path))])
        assert code == 0
        out = capsys.readouterr().out
        lines = dict(line.split("\t") for line in out.strip().splitlines())
        assert set(lines) == {"OS", "TS", "SS-RE", "SS-RD", "SS-SR", "PS", "SINGLE:1", "SINGLE:2"}
        assert all(0.0 <= float(v) <= 1.0 for v in lines.values())

    def test_simulate_command(self, tmp_path, capsys):
        code = main(
            [
                "simulate",
                "--config",
                str(self.write_config(tmp_path)),
                "--trials",
                "5000",
                "--seed",
                "9",
                "--scheme",
                "ts",
            ]
        )
        assert code == 0
        label, p_hat, stderr = capsys.readouterr().out.strip().split("\t")
        assert label == "TS"
        assert 0.0 <= float(p_hat) <= 1.0

    @pytest.mark.parametrize("command", ["outage", "sweep", "figure"])
    def test_max_n_is_not_an_option(self, tmp_path, capsys, command):
        args = {
            "outage": ["--config", str(self.write_config(tmp_path))],
            "sweep": ["--config", str(tmp_path / "spec.json"), "--out", str(tmp_path / "x.csv")],
            "figure": ["fig2", "--out", str(tmp_path / "x.csv")],
        }[command]
        with pytest.raises(SystemExit) as exc:
            main([command, *args, "--max-n", "3"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --max-n 3" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert "--max-n" not in capsys.readouterr().out
        assert list(tmp_path.glob("x*")) == []

    def test_sweep_command_writes_csv_and_manifest(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "snr_grid_db": [10.0, 20.0],
                    "rates": [0.5],
                    "schemes": ["OS", "TS"],
                    "n_relays": 2,
                    "eaves_snr_db": 3.0,
                }
            )
        )
        out = tmp_path / "sweep.csv"
        code = main(
            ["sweep", "--config", str(spec_path), "--out", str(out), "--trials", "500", "--seed", "3"]
        )
        assert code == 0
        assert out.exists()
        manifest = json.loads((tmp_path / "sweep.manifest.json").read_text())
        assert manifest["mc_trials"] == 500
        assert manifest["seed"] == 3

    def test_figure_multi_variant_paths(self, tmp_path):
        out = tmp_path / "f4.csv"
        code = main(["figure", "fig4", "--out", str(out), "--trials", "0"])
        assert code == 0
        assert (tmp_path / "f4.n2.csv").exists()
        assert (tmp_path / "f4.n4.csv").exists()
        manifest = json.loads((tmp_path / "f4.manifest.json").read_text())
        assert [v["label"] for v in manifest["variants"]] == ["n2", "n4"]

    def test_figure_config_overrides_every_variant_and_flags_win(self, tmp_path):
        overrides = tmp_path / "over.json"
        overrides.write_text(json.dumps({"snr_grid_db": [0.0, 10.0], "mc_trials": 50, "seed": 1}))
        out = tmp_path / "f4.csv"
        argv = ["figure", "fig4", "--config", str(overrides), "--out", str(out)]
        assert main(argv + ["--trials", "0", "--seed", "9"]) == 0
        manifest = json.loads((tmp_path / "f4.manifest.json").read_text())
        assert len(manifest["variants"]) == 2
        for variant in manifest["variants"]:
            assert variant["spec"]["snr_grid_db"] == [0.0, 10.0]
            assert variant["mc_trials"] == 0
            assert variant["seed"] == 9

    def test_figure_fig5_single_file_and_determinism(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert main(["figure", "fig5", "--out", str(out_a), "--trials", "300", "--seed", "42"]) == 0
        assert main(["figure", "fig5", "--out", str(out_b), "--trials", "300", "--seed", "42"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_diversity_command(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {
                    "snr_grid_db": [40.0, 45.0, 50.0, 55.0, 60.0],
                    "rates": [0.5],
                    "schemes": ["OS"],
                    "n_relays": 3,
                    "eaves_snr_db": 0.0,
                }
            )
        )
        assert main(["sweep", "--config", str(spec_path), "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["diversity", str(out), "--window", "25"]) == 0
        line = capsys.readouterr().out.strip()
        scheme, rate, order = line.split("\t")
        assert scheme == "OS"
        assert float(order) == pytest.approx(3.0, abs=0.3)

    def test_gap_command(self, capsys):
        assert main(["gap", "0", "3.0103", "0.5"]) == 0
        assert float(capsys.readouterr().out) == pytest.approx(2.2185, abs=1e-3)

    def test_config_errors_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["outage", "--config", str(missing)]) == 2
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["outage", "--config", str(bad)]) == 2
        with pytest.raises(SystemExit) as exc:
            main(["figure", "fig9", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_overflowing_rate_exits_2(self, tmp_path, capsys):
        cfg = json.loads(self.write_config(tmp_path).read_text())
        cfg["rate_rs"] = 600
        path = tmp_path / "huge_rate.json"
        path.write_text(json.dumps(cfg))
        assert main(["outage", "--config", str(path)]) == 2
        assert main(["gap", "3", "6", "600"]) == 2
        assert capsys.readouterr().err.count("rate_rs must be below 512") == 2

    # Near rate 512, B*rho overflows float64 in the kernel: with relay 1's hops
    # at -3 dB in the selection sums only, at -4 dB in every scheme.  Seven
    # relays take the integral, where s*t and t*c overflow as well.
    @pytest.mark.parametrize(
        "hop_eve_db",
        [
            pytest.param([(-3.0, -3.0), (0.0, 0.0)], id="-3.0"),
            pytest.param([(-4.0, -4.0), (0.0, 0.0)], id="-4.0"),
            pytest.param([(-10.0, 0.0)] * 7, id="seven-relays"),
        ],
    )
    def test_rate_511_outage_is_one(self, tmp_path, capsys, hop_eve_db):
        relays = [{"sr_snr_db": h, "rd_snr_db": h, "eve_snr_db": e} for h, e in hop_eve_db]
        path = tmp_path / "rate511.json"
        path.write_text(json.dumps({"relays": relays, "rate_rs": 511}))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["outage", "--config", str(path)]) == 0
        lines = dict(line.split("\t") for line in capsys.readouterr().out.strip().splitlines())
        singles = {f"SINGLE:{k}" for k in range(1, len(relays) + 1)}
        assert set(lines) == {"OS", "TS", "SS-RE", "SS-RD", "SS-SR", "PS"} | singles
        for label, value in lines.items():
            assert abs(float(value) - 1.0) <= 1e-12, label

    def test_outage_takes_any_relay_count(self, tmp_path, capsys):
        relays = [
            {"sr_snr_db": 10.0 + 0.1 * i, "rd_snr_db": 12.0, "eve_snr_db": 0.25 * i}
            for i in range(24)
        ]
        path = tmp_path / "many.json"
        path.write_text(json.dumps({"relays": relays, "rate_rs": 0.5}))
        assert main(["outage", "--config", str(path)]) == 0
        lines = dict(line.split("\t") for line in capsys.readouterr().out.strip().splitlines())
        assert len(lines) == 6 + 24
        assert all(0.0 < float(v) < 1.0 for v in lines.values())

    def test_readme_examples_run(self, tmp_path, capsys):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        blocks = re.findall(r"```json\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
        assert len(blocks) == 2
        for block, argv in zip(blocks, (["outage"], ["sweep", "--trials", "2000",
                                                     "--out", str(tmp_path / "x.csv")])):
            path = tmp_path / f"{argv[0]}.json"
            path.write_text(block, encoding="utf-8")
            assert main(argv + ["--config", str(path)]) == 0, capsys.readouterr().err

    def test_non_finite_subset_term_exits_3(self, tmp_path, capsys, monkeypatch):
        # A NaN aggregate makes TS's first summed term non-finite.
        monkeypatch.setattr(closedform, "subset_terms",
                            lambda weights, exclude: [SignedSubsetTerm(-1, math.nan, 1)])
        assert main(["outage", "--config", str(self.write_config(tmp_path))]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: term ") and "non-finite nan" in err

    @pytest.mark.parametrize(
        "hop_db, eve_db", [(-3000.0, 3000.0), (3000.0, -3000.0), (3080.0, 0.0)],
        ids=["metric-rate-overflow", "metric-rate-underflow", "3080-dB-hop"])
    @pytest.mark.parametrize(
        "command", [["outage"], ["simulate", "--trials", "100", "--seed", "1"]],
        ids=["outage", "simulate"])
    def test_link_snr_outside_the_range_exits_2(self, tmp_path, capsys, hop_db, eve_db, command):
        # SS-RE's metric rate b/a once left float64 on the first relay (exit
        # 3), and a 3080 dB hop's simulated SNR overflowed.
        relays = [{"sr_snr_db": hop_db, "rd_snr_db": hop_db, "eve_snr_db": eve_db},
                  {"sr_snr_db": 10.0, "rd_snr_db": 10.0, "eve_snr_db": 0.0}]
        path = tmp_path / "extreme.json"
        path.write_text(json.dumps({"relays": relays, "rate_rs": 0.5}))
        assert main(command + ["--config", str(path)]) == 2
        assert "sr_rate must be a rate in" in capsys.readouterr().err

    @pytest.mark.parametrize("sr_db", [3200.0, -3300.0], ids=["overflow", "underflow"])
    def test_decibels_outside_float64_exit_2(self, tmp_path, capsys, sr_db):
        # 10^(dB/10) overflows float64 at 3200 dB and underflows to 0 at -3300 dB.
        relays = [{"sr_snr_db": sr_db, "rd_snr_db": 10.0, "eve_snr_db": 0.0}]
        path = tmp_path / "extreme_db.json"
        path.write_text(json.dumps({"relays": relays, "rate_rs": 0.5}))
        assert main(["outage", "--config", str(path)]) == 2
        assert "outside the float64 range" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("mc_trials", "abc"), ("n_relays", "x")])
    def test_mistyped_spec_number_exits_2(self, tmp_path, capsys, field, value):
        spec = {"snr_grid_db": [10.0], "rates": [0.5], "schemes": ["OS"], field: value}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["sweep", "--config", str(spec_path), "--out", str(tmp_path / "x.csv")]) == 2
        assert "malformed sweep spec" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["n_relays", "mc_trials", "seed"])
    def test_non_integral_spec_count_exits_2(self, tmp_path, capsys, field):
        spec = {"snr_grid_db": [10.0], "rates": [0.5], "schemes": ["OS"], field: 2.5}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["sweep", "--config", str(spec_path), "--out", str(tmp_path / "x.csv")]) == 2
        assert f"{field} must be an integer, got 2.5" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["snr_grid_db", "rates", "schemes"])
    def test_spec_missing_a_required_field_exits_2(self, tmp_path, capsys, field):
        spec = {"snr_grid_db": [10.0], "rates": [0.5], "schemes": ["OS"]}
        del spec[field]
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["sweep", "--config", str(spec_path), "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert "malformed sweep spec" in err
        # The message names the missing field and no other.
        assert f"'{field}'" in err
        assert not any(other in err for other in spec)

    def test_manifest_version_is_the_package_version(self, tmp_path):
        out = tmp_path / "f5.csv"
        assert main(["figure", "fig5", "--out", str(out), "--trials", "0"]) == 0
        manifest = json.loads((tmp_path / "f5.manifest.json").read_text())
        assert manifest["tool_version"] == relaysec.__version__ == "0.1.0"
        # The package attribute is the only version source: the build reads it.
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
        assert "version" not in pyproject["project"]
        assert pyproject["project"]["dynamic"] == ["version"]
        assert pyproject["tool"]["setuptools"]["dynamic"]["version"] == {
            "attr": "relaysec.__version__"}

    def test_unwritable_destination_exits_4(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {"snr_grid_db": [10.0], "rates": [0.5], "schemes": ["OS"], "n_relays": 1}
            )
        )
        dest = tmp_path / "no-such-dir" / "x.csv"
        assert main(["sweep", "--config", str(spec_path), "--out", str(dest)]) == 4
        assert str(dest) in capsys.readouterr().err

    def test_outage_out_writes_the_file(self, tmp_path, capsys):
        dest = tmp_path / "outage.txt"
        assert main(["outage", "--config", str(self.write_config(tmp_path)), "--out", str(dest)]) == 0
        assert capsys.readouterr().out == ""
        lines = dict(line.split("\t") for line in dest.read_text().strip().splitlines())
        assert set(lines) == {"OS", "TS", "SS-RE", "SS-RD", "SS-SR", "PS", "SINGLE:1", "SINGLE:2"}

    def test_outage_out_in_a_missing_directory_exits_4(self, tmp_path, capsys):
        dest = tmp_path / "no-such-dir" / "outage.txt"
        assert main(["outage", "--config", str(self.write_config(tmp_path)), "--out", str(dest)]) == 4
        assert str(dest) in capsys.readouterr().err

    def test_diversity_on_a_missing_file_exits_4(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert main(["diversity", str(missing)]) == 4
        assert str(missing) in capsys.readouterr().err

    def test_diversity_on_a_csv_that_is_not_a_sweep_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "other.csv"
        path.write_text("a,b\n1,2\n")
        assert main(["diversity", str(path)]) == 2
        assert f"{path} is not a sweep CSV" in capsys.readouterr().err

    def test_diversity_without_two_positive_points_prints_n_a(self, tmp_path, capsys):
        path = tmp_path / "flat.csv"
        path.write_text("scheme,rate_rs,snr_db,p_closed\nTS,0.5,10.0,0.1\nTS,0.5,20.0,0.0\n")
        assert main(["diversity", str(path)]) == 0
        assert capsys.readouterr().out == "TS\t0.5\tn/a\n"

    def test_json_array_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "array.json"
        path.write_text("[1, 2]")
        assert main(["outage", "--config", str(path)]) == 2
        assert f"config {path} must hold a JSON object" in capsys.readouterr().err

    def test_closed_stdout_exits_4(self, capsys, monkeypatch):
        class ClosedStdout:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", ClosedStdout())
        assert main(["gap", "0", "3", "0.5"]) == 4
        assert "Broken pipe" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["outage", "sweep", "diversity"])
    def test_non_utf8_input_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "utf16.txt"
        path.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
        argv = {
            "outage": ["outage", "--config", str(path)],
            "sweep": ["sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")],
            "diversity": ["diversity", str(path)],
        }[command]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(path) in err
