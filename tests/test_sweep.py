import csv
import hashlib
import json
import math
import warnings
from importlib import metadata

import pytest

import relaysec
from relaysec import (
    ALL_SCHEMES,
    RelayLinkParams,
    SweepSpec,
    asymp_single_balanced,
    db_to_linear,
    emit_csv,
    figure_preset,
    run_manifest,
    run_sweep,
    single,
    single_relay_outage,
)
from relaysec import cli
from relaysec.cli import main
from relaysec.params import ConfigError
from relaysec.subsets import EvaluationError
from relaysec.sweep import CSV_HEADER, FixedHop, render_csv


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


class TestSweepSpecValidation:
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

    def test_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            SweepSpec.from_dict({"snr_grid_db": [0.0], "rates": [1.0], "schemes": ["OS"], "noise": 1})


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
    def test_header_only_for_empty_rows(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == ",".join(CSV_HEADER) + "\n"

    def test_two_line_file_for_one_row(self, tmp_path):
        rows = run_sweep(single_relay_spec(snr_grid_db=(20.0,)))
        path = tmp_path / "one.csv"
        emit_csv(rows, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_HEADER)

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
        # cells, all N = 8 or 10, moved by at most 1.2e-12 relative); any
        # later change must keep every p_closed bit for bit.
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
            "b2de0a17493b8c5f256e77a772cc5127cfd3f3e757e3524feb8d29cff1b38794"
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
        # --max-n is accepted and ignored.
        assert main(["outage", "--config", str(path), "--max-n", "3"]) == 0
        lines = dict(line.split("\t") for line in capsys.readouterr().out.strip().splitlines())
        assert len(lines) == 6 + 24
        assert all(0.0 < float(v) < 1.0 for v in lines.values())

    def test_non_finite_subset_term_exits_3(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise EvaluationError("term evaluated to non-finite nan")

        monkeypatch.setattr(cli, "outage_for_scheme", failing)
        assert main(["outage", "--config", str(self.write_config(tmp_path))]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [("mc_trials", "abc"), ("n_relays", "x")])
    def test_mistyped_spec_number_exits_2(self, tmp_path, capsys, field, value):
        spec = {"snr_grid_db": [10.0], "rates": [0.5], "schemes": ["OS"], field: value}
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(spec))
        assert main(["sweep", "--config", str(spec_path), "--out", str(tmp_path / "x.csv")]) == 2
        assert "malformed sweep spec" in capsys.readouterr().err

    def test_manifest_version_falls_back_to_the_package_version(self, tmp_path, monkeypatch):
        def missing(name):
            raise metadata.PackageNotFoundError(name)

        monkeypatch.setattr(metadata, "version", missing)
        out = tmp_path / "f5.csv"
        assert main(["figure", "fig5", "--out", str(out), "--trials", "0"]) == 0
        manifest = json.loads((tmp_path / "f5.manifest.json").read_text())
        assert manifest["tool_version"] == relaysec.__version__ == "0.1.0"

    def test_unwritable_destination_exits_4(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(
            json.dumps(
                {"snr_grid_db": [10.0], "rates": [0.5], "schemes": ["OS"], "n_relays": 1}
            )
        )
        dest = tmp_path / "no-such-dir" / "x.csv"
        assert main(["sweep", "--config", str(spec_path), "--out", str(dest)]) == 4
