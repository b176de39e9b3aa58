"""Command-line front end.

Subcommands
-----------
outage     closed-form outage of one configuration under every scheme
simulate   Monte Carlo estimates for one configuration
sweep      run a sweep spec from JSON, emit CSV + manifest
figure     run a published-experiment preset (fig2..fig5)
diversity  fit decay orders on a previously emitted sweep CSV
gap        dB penalty of an eavesdropper mean-SNR improvement

Exit codes: 0 success, 2 configuration error (a link mean SNR outside
±300 dB among them), 3 numerical failure (a value outside [0, 1] beyond
the clamp band, or a non-finite value or term), 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

from . import __version__
from .asymptotics import diversity_order_estimate, snr_gap_db
from .closedform import outage_for_scheme
from .montecarlo import simulate_outage
from .params import (
    ALL_SCHEMES,
    CancellationError,
    ConfigError,
    RelayLinkParams,
    SystemConfig,
    _require_object,
    _require_real,
    db_to_linear,
    parse_scheme,
    rho_of_rate,
    single,
)
from .sweep import FIGURE_NAMES, SweepSpec, figure_preset, render_csv, run_manifest, run_sweep

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_IO = 4


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return data


def _system_config(data: dict) -> SystemConfig:
    _require_object("system config", data, ("relays", "rate_rs"))
    keys = ("sr_snr_db", "rd_snr_db", "eve_snr_db")
    try:
        relays = []
        for i, r in enumerate(data["relays"]):
            _require_object(f"relays[{i}]", r, keys)
            levels = (_require_real(f"relays[{i}].{key}", r[key]) for key in keys)
            relays.append(RelayLinkParams.from_mean_snr_db(*levels))
        return SystemConfig(relays=tuple(relays), rate_rs=_require_real("rate_rs", data["rate_rs"]))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"malformed system config: {exc}") from exc


def _variant_path(base: Path, label: str) -> Path:
    if not label:
        return base
    return base.with_name(f"{base.stem}.{label}{base.suffix}")


def _cmd_outage(args: argparse.Namespace) -> int:
    cfg = _system_config(_load_json(args.config))
    schemes = list(ALL_SCHEMES) + [single(k) for k in range(1, cfg.n_relays + 1)]
    lines = []
    for scheme in schemes:
        result = outage_for_scheme(cfg, scheme)
        lines.append(f"{scheme.label}\t{result.p!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8", newline="")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _system_config(_load_json(args.config))
    schemes = [parse_scheme(args.scheme)] if args.scheme else list(ALL_SCHEMES)
    lines = []
    for scheme in schemes:
        est = simulate_outage(cfg, scheme, trials=args.trials, seed=args.seed)
        lines.append(f"{scheme.label}\t{est.p_hat!r}\t{est.std_err!r}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _run_family(family: tuple[tuple[str, SweepSpec], ...], out: str) -> int:
    base = Path(out)
    written = []
    manifests = []
    for label, spec in family:
        rows = run_sweep(spec)
        path = _variant_path(base, label)
        path.write_text(render_csv(rows), encoding="utf-8", newline="")
        written.append(str(path))
        manifest = run_manifest(spec, __version__, rows)
        manifest["label"] = label
        manifest["csv"] = path.name
        manifests.append(manifest)
    manifest_path = base.with_name(f"{base.stem}.manifest.json")
    payload = manifests[0] if len(manifests) == 1 else {"variants": manifests}
    manifest_text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    manifest_path.write_text(manifest_text, encoding="utf-8", newline="")
    for path in written + [str(manifest_path)]:
        sys.stdout.write(f"wrote {path}\n")
    return EXIT_OK


def _apply_overrides(base: SweepSpec | None, args: argparse.Namespace) -> SweepSpec:
    """`base`, overridden by the --config file's fields, then by --trials/--seed."""
    data = base.to_dict() if base else {}
    if args.config:
        data.update(_load_json(args.config))
    if args.trials is not None:
        data["mc_trials"] = args.trials
    if args.seed is not None:
        data["seed"] = args.seed
    return SweepSpec.from_dict(data)


def _cmd_sweep(args: argparse.Namespace) -> int:
    return _run_family((("", _apply_overrides(None, args)),), args.out)


def _cmd_figure(args: argparse.Namespace) -> int:
    family = figure_preset(args.name)
    family = tuple((label, _apply_overrides(spec, args)) for label, spec in family)
    return _run_family(family, args.out)


def _cmd_diversity(args: argparse.Namespace) -> int:
    groups: dict[tuple[str, str], list[tuple[float, float]]] = {}
    with open(args.csv, encoding="utf-8", newline="") as fh:
        try:  # a decoding error is a ValueError too
            for row in csv.DictReader(fh):
                key = (row["scheme"], row["rate_rs"])
                point = (float(row["snr_db"]), float(row["p_closed"]))
                groups.setdefault(key, []).append(point)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{args.csv} is not a sweep CSV: {exc}") from exc
    lines = []
    for (scheme, rate), points in sorted(groups.items()):
        points.sort()
        usable = [(db, p) for db, p in points if p > 0.0]
        if len(usable) < 2:
            lines.append(f"{scheme}\t{rate}\tn/a")
            continue
        order = diversity_order_estimate(usable, window_db=args.window)
        lines.append(f"{scheme}\t{rate}\t{order:.4f}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_gap(args: argparse.Namespace) -> int:
    gap = snr_gap_db(
        eve_rate_from=1.0 / db_to_linear(args.eve_from_db),
        eve_rate_to=1.0 / db_to_linear(args.eve_to_db),
        rho=rho_of_rate(args.rate),
    )
    sys.stdout.write(f"{gap!r}\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaysec",
        description="Secrecy outage of dual-hop decode-and-forward relay selection",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("outage", help="closed-form outage for one config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output path")
    p.set_defaults(func=_cmd_outage)

    p = sub.add_parser("simulate", help="Monte Carlo outage for one config")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--scheme", help="restrict to one scheme label")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="run a sweep spec from JSON")
    p.add_argument("--config", required=True)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("figure", help="run a published-experiment preset")
    p.add_argument("name", choices=FIGURE_NAMES)
    p.add_argument("--config", help="JSON overrides applied to every variant")
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True, help="output path")
    p.set_defaults(func=_cmd_figure)

    p = sub.add_parser("diversity", help="fit decay orders on a sweep CSV")
    p.add_argument("csv")
    p.add_argument("--window", type=float, default=20.0,
                   help="fit window in dB below the top grid point")
    p.set_defaults(func=_cmd_diversity)

    p = sub.add_parser("gap", help="dB penalty of an eavesdropper improvement")
    p.add_argument("eve_from_db", type=float)
    p.add_argument("eve_to_db", type=float)
    p.add_argument("rate", type=float)
    p.set_defaults(func=_cmd_gap)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except CancellationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:  # a file or a standard stream
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
