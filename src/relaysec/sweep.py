"""Parameter sweeps: closed form plus optional simulation and expansions,
emitted as CSV with a JSON run manifest.

A sweep walks scheme x rate x SNR-grid cells for one relay population.  The
grid is the total main-channel mean SNR, shared between the two hops by a
power split, unless a fixed hop is declared, in which case the grid drives
the other hop alone (the unbalanced experiment).  Figure presets reproduce
the published experiment parameterizations; presets whose curve families
differ in quantities the CSV schema does not carry (relay count, eavesdropper
level, pinned-hop level) expand to one labelled sweep per family member.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Sequence

from .asymptotics import (
    asymp_os_balanced,
    asymp_os_unbalanced_floor,
    asymp_single_balanced,
    asymp_single_unbalanced,
    asymp_ts_balanced,
)
from .closedform import outage_for_scheme
from .montecarlo import simulate_outage
from .params import (
    ALL_SCHEMES,
    ConfigError,
    RelayLinkParams,
    SelectionScheme,
    SystemConfig,
    _require_seed,
    db_to_linear,
    parse_scheme,
    single,
    split_total_snr,
)

__all__ = [
    "FixedHop",
    "SweepSpec",
    "SweepRow",
    "run_sweep",
    "figure_preset",
    "emit_csv",
    "run_manifest",
    "CSV_HEADER",
    "FIGURE_NAMES",
]

CSV_HEADER = ("scheme", "rate_rs", "snr_db", "p_closed", "p_mc", "mc_stderr", "p_asymp", "floor")

FIGURE_NAMES = ("fig2", "fig3", "fig4", "fig5")

_GRID_0_60 = tuple(float(x) for x in range(0, 61, 5))
_GRID_0_80 = tuple(float(x) for x in range(0, 81, 5))


@dataclass(frozen=True)
class FixedHop:
    """Pin one hop ('SR' or 'RD') at a mean SNR while the grid drives the other."""

    which: str
    snr_db: float

    def __post_init__(self) -> None:
        if self.which not in ("SR", "RD"):
            raise ConfigError(f"fixed_hop.which must be 'SR' or 'RD', got {self.which!r}")
        if not math.isfinite(self.snr_db):
            raise ConfigError(f"fixed_hop.snr_db must be finite, got {self.snr_db!r}")


def _ascending(name: str, values: Sequence[float]) -> tuple[float, ...]:
    vals = tuple(float(v) for v in values)
    if not vals:
        raise ConfigError(f"{name} must be non-empty")
    for v in vals:
        if not math.isfinite(v):
            raise ConfigError(f"{name} entries must be finite, got {v!r}")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError(f"{name} must be strictly ascending")
    return vals


@dataclass(frozen=True)
class SweepSpec:
    """One sweep's axes and settings.

    power_split_sr may be a single fraction or one fraction per rate (the
    published rate/split pairings need the latter).  eaves_snr_db may be a
    scalar applied to every relay or a per-relay list of length n_relays.
    mc_trials = 0 disables the simulation columns.
    """

    snr_grid_db: tuple[float, ...]
    rates: tuple[float, ...]
    schemes: tuple[SelectionScheme, ...]
    n_relays: int = 1
    power_split_sr: float | tuple[float, ...] = 0.5
    eaves_snr_db: float | tuple[float, ...] = 0.0
    mc_trials: int = 0
    seed: int = 0
    fixed_hop: FixedHop | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "snr_grid_db", _ascending("snr_grid_db", self.snr_grid_db))
        object.__setattr__(self, "rates", _ascending("rates", self.rates))
        for r in self.rates:
            if r <= 0.0:
                raise ConfigError(f"rates must be positive, got {r!r}")
        if int(self.n_relays) < 1:
            raise ConfigError(f"n_relays must be >= 1, got {self.n_relays!r}")
        object.__setattr__(self, "n_relays", int(self.n_relays))
        schemes = tuple(self.schemes)
        if not schemes:
            raise ConfigError("schemes must be non-empty")
        for s in schemes:
            if not isinstance(s, SelectionScheme):
                raise ConfigError(f"schemes entries must be SelectionScheme, got {s!r}")
            if s.kind == "SINGLE" and s.relay > self.n_relays:
                raise ConfigError(f"scheme {s.label} exceeds n_relays={self.n_relays}")
        object.__setattr__(self, "schemes", schemes)
        if isinstance(self.power_split_sr, (tuple, list)):
            splits = tuple(float(x) for x in self.power_split_sr)
            if len(splits) != len(self.rates):
                raise ConfigError(
                    "per-rate power_split_sr must match the number of rates"
                )
            object.__setattr__(self, "power_split_sr", splits)
        else:
            object.__setattr__(self, "power_split_sr", float(self.power_split_sr))
            splits = (self.power_split_sr,) * len(self.rates)
        for f in splits:
            if not (0.0 < f < 1.0):
                raise ConfigError(f"power_split_sr must lie in (0, 1), got {f!r}")
        if isinstance(self.eaves_snr_db, (tuple, list)):
            eaves = tuple(float(x) for x in self.eaves_snr_db)
            if len(eaves) != self.n_relays:
                raise ConfigError("per-relay eaves_snr_db must have length n_relays")
            object.__setattr__(self, "eaves_snr_db", eaves)
        else:
            object.__setattr__(self, "eaves_snr_db", float(self.eaves_snr_db))
        if isinstance(self.eaves_snr_db, tuple):
            bad = [v for v in self.eaves_snr_db if not math.isfinite(v)]
        else:
            bad = [] if math.isfinite(self.eaves_snr_db) else [self.eaves_snr_db]
        if bad:
            raise ConfigError(f"eaves_snr_db entries must be finite, got {bad[0]!r}")
        if int(self.mc_trials) < 0:
            raise ConfigError(f"mc_trials must be >= 0, got {self.mc_trials!r}")
        object.__setattr__(self, "mc_trials", int(self.mc_trials))
        object.__setattr__(self, "seed", _require_seed(self.seed))
        if self.fixed_hop is not None and not isinstance(self.fixed_hop, FixedHop):
            raise ConfigError("fixed_hop must be a FixedHop or None")

    def split_for_rate(self, rate_index: int) -> float:
        if isinstance(self.power_split_sr, tuple):
            return self.power_split_sr[rate_index]
        return float(self.power_split_sr)

    def eve_rates(self) -> tuple[float, ...]:
        if isinstance(self.eaves_snr_db, tuple):
            return tuple(1.0 / db_to_linear(db) for db in self.eaves_snr_db)
        return (1.0 / db_to_linear(float(self.eaves_snr_db)),) * self.n_relays

    def to_dict(self) -> dict:
        return {
            "snr_grid_db": list(self.snr_grid_db),
            "rates": list(self.rates),
            "schemes": [s.label for s in self.schemes],
            "n_relays": self.n_relays,
            "power_split_sr": list(self.power_split_sr)
            if isinstance(self.power_split_sr, tuple)
            else self.power_split_sr,
            "eaves_snr_db": list(self.eaves_snr_db)
            if isinstance(self.eaves_snr_db, tuple)
            else self.eaves_snr_db,
            "mc_trials": self.mc_trials,
            "seed": self.seed,
            "fixed_hop": {"which": self.fixed_hop.which, "snr_db": self.fixed_hop.snr_db}
            if self.fixed_hop
            else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        if not isinstance(data, dict):
            raise ConfigError("sweep spec must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown sweep spec fields: {sorted(unknown)}")
        try:
            kwargs = dict(data)
            if "snr_grid_db" not in kwargs or "rates" not in kwargs or "schemes" not in kwargs:
                raise ConfigError("sweep spec needs snr_grid_db, rates and schemes")
            kwargs["snr_grid_db"] = tuple(kwargs["snr_grid_db"])
            kwargs["rates"] = tuple(kwargs["rates"])
            kwargs["schemes"] = tuple(
                parse_scheme(s) if isinstance(s, str) else s for s in kwargs["schemes"]
            )
            if isinstance(kwargs.get("power_split_sr"), list):
                kwargs["power_split_sr"] = tuple(kwargs["power_split_sr"])
            if isinstance(kwargs.get("eaves_snr_db"), list):
                kwargs["eaves_snr_db"] = tuple(kwargs["eaves_snr_db"])
            fh = kwargs.get("fixed_hop")
            if isinstance(fh, dict):
                kwargs["fixed_hop"] = FixedHop(which=fh["which"], snr_db=float(fh["snr_db"]))
            return cls(**kwargs)
        except ConfigError:
            raise
        except (TypeError, KeyError, ValueError) as exc:
            raise ConfigError(f"malformed sweep spec: {exc}") from exc


@dataclass(frozen=True)
class SweepRow:
    """One sweep cell.  Optional columns are None when not computed."""

    scheme: str
    rate_rs: float
    snr_db: float
    p_closed: float
    n_relays: int
    p_mc: float | None = None
    mc_stderr: float | None = None
    p_asymp: float | None = None
    floor: float | None = None


def _cell_seed(seed: int, scheme_label: str, rate_index: int, grid_index: int) -> int:
    """Stable per-cell substream seed so cells are individually reproducible."""
    text = f"{seed}:{scheme_label}:{rate_index}:{grid_index}".encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


def _build_config(
    spec: SweepSpec, rate: float, split: float, grid_db: float
) -> SystemConfig:
    eves = spec.eve_rates()
    if spec.fixed_hop is None:
        sr_rate, rd_rate = split_total_snr(db_to_linear(grid_db), split)
    else:
        pinned = 1.0 / db_to_linear(spec.fixed_hop.snr_db)
        varying = 1.0 / db_to_linear(grid_db)
        if spec.fixed_hop.which == "SR":
            sr_rate, rd_rate = pinned, varying
        else:
            sr_rate, rd_rate = varying, pinned
    relays = tuple(
        RelayLinkParams(sr_rate=sr_rate, rd_rate=rd_rate, eve_rate=e) for e in eves
    )
    return SystemConfig(relays=relays, rate_rs=rate)


def _asymptote_columns(
    spec: SweepSpec, scheme: SelectionScheme, cfg: SystemConfig, grid_db: float
) -> tuple[float | None, float | None]:
    """(p_asymp, floor) for schemes with a published expansion, else Nones."""
    rho = cfg.rho
    eves = [r.eve_rate for r in cfg.relays]
    composite = cfg.relays[0].main_rate
    balanced = spec.fixed_hop is None
    if scheme.kind == "SINGLE":
        k = scheme.relay - 1
        if balanced:
            res = asymp_single_balanced(eves[k], rho, 2.0 / composite)
            return res.value, None
        pinned = (
            cfg.relays[k].sr_rate if spec.fixed_hop.which == "SR" else cfg.relays[k].rd_rate
        )
        res = asymp_single_unbalanced(pinned, eves[k], rho, db_to_linear(grid_db))
        return res.value, res.floor
    if scheme.kind == "OS":
        if balanced:
            return asymp_os_balanced(eves, rho, 2.0 / composite).value, None
        pinned = [
            r.sr_rate if spec.fixed_hop.which == "SR" else r.rd_rate for r in cfg.relays
        ]
        return None, asymp_os_unbalanced_floor(pinned, eves, rho).floor
    if scheme.kind == "TS" and balanced:
        return asymp_ts_balanced(eves, rho, 1.0 / composite).value, None
    return None, None


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One row per scheme x rate x grid point.

    Closed forms are always computed; simulation columns appear when
    mc_trials > 0, each cell on its own derived substream; expansion columns
    appear for schemes with a published high-SNR form.
    """
    rows: list[SweepRow] = []
    for scheme in spec.schemes:
        for ri, rate in enumerate(spec.rates):
            split = spec.split_for_rate(ri)
            for gi, grid_db in enumerate(spec.snr_grid_db):
                cfg = _build_config(spec, rate, split, grid_db)
                closed = outage_for_scheme(cfg, scheme)
                p_mc = mc_stderr = None
                if spec.mc_trials > 0:
                    est = simulate_outage(
                        cfg,
                        scheme,
                        spec.mc_trials,
                        _cell_seed(spec.seed, scheme.label, ri, gi),
                    )
                    p_mc, mc_stderr = est.p_hat, est.std_err
                p_asymp, floor = _asymptote_columns(spec, scheme, cfg, grid_db)
                rows.append(
                    SweepRow(
                        scheme=scheme.label,
                        rate_rs=rate,
                        snr_db=grid_db,
                        p_closed=closed.p,
                        n_relays=spec.n_relays,
                        p_mc=p_mc,
                        mc_stderr=mc_stderr,
                        p_asymp=p_asymp,
                        floor=floor,
                    )
                )
    return rows


def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def render_csv(rows: Sequence[SweepRow]) -> str:
    """CSV text: fixed header, shortest round-trip decimals, empty optionals,
    rows sorted by (scheme, rate, snr)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in sorted(rows, key=lambda r: (r.scheme, r.rate_rs, r.snr_db)):
        writer.writerow(
            [
                row.scheme,
                repr(float(row.rate_rs)),
                repr(float(row.snr_db)),
                repr(float(row.p_closed)),
                _fmt(row.p_mc),
                _fmt(row.mc_stderr),
                _fmt(row.p_asymp),
                _fmt(row.floor),
            ]
        )
    return buf.getvalue()


def emit_csv(rows: Sequence[SweepRow], destination: str | Path) -> None:
    """Write the sweep CSV (UTF-8, LF endings) to a path."""
    text = render_csv(rows)
    Path(destination).write_text(text, encoding="utf-8", newline="")


def run_manifest(
    spec: SweepSpec, tool_version: str, rows: Sequence[SweepRow] = ()
) -> dict:
    """Reproducibility record for one sweep: the fully resolved spec, the
    seed and trial count, and the worst closed-form/simulation disagreement
    in standard-error units (None when simulation was disabled)."""
    max_z: float | None = None
    for row in rows:
        if row.p_mc is None or not row.mc_stderr:
            continue
        z = abs(row.p_closed - row.p_mc) / row.mc_stderr
        if max_z is None or z > max_z:
            max_z = z
    return {
        "tool_version": tool_version,
        "spec": spec.to_dict(),
        "seed": spec.seed,
        "mc_trials": spec.mc_trials,
        "row_count": len(rows),
        "mc_agreement_max_z": max_z,
    }


def figure_preset(name: str) -> tuple[tuple[str, SweepSpec], ...]:
    """Published experiment parameterizations as (label, spec) families.

    A family has one member per curve group the CSV schema cannot encode in
    its columns; single-member families carry an empty label.
    """
    if name == "fig2":
        return tuple(
            (
                f"eve{int(db)}dB",
                SweepSpec(
                    snr_grid_db=_GRID_0_60,
                    rates=(0.1, 1.0, 2.0),
                    schemes=(single(1),),
                    n_relays=1,
                    power_split_sr=0.5,
                    eaves_snr_db=db,
                ),
            )
            for db in (3.0, 6.0)
        )
    if name == "fig3":
        return tuple(
            (
                f"srfixed{int(db)}dB",
                SweepSpec(
                    snr_grid_db=_GRID_0_80,
                    rates=(0.1, 1.0, 2.0),
                    schemes=(single(1),),
                    n_relays=1,
                    eaves_snr_db=6.0,
                    fixed_hop=FixedHop("SR", db),
                ),
            )
            for db in (25.0, 30.0, 35.0)
        )
    if name == "fig4":
        return tuple(
            (
                f"n{n}",
                SweepSpec(
                    snr_grid_db=_GRID_0_60,
                    rates=(1.0,),
                    schemes=ALL_SCHEMES,
                    n_relays=n,
                    power_split_sr=0.5,
                    eaves_snr_db=3.0,
                ),
            )
            for n in (2, 4)
        )
    if name == "fig5":
        return (
            (
                "",
                SweepSpec(
                    snr_grid_db=_GRID_0_60,
                    rates=(0.1, 1.0),
                    schemes=ALL_SCHEMES,
                    n_relays=4,
                    power_split_sr=(0.3, 0.7),
                    eaves_snr_db=(0.0, 3.0, 6.0, 9.0),
                ),
            ),
        )
    raise ConfigError(f"unknown figure preset {name!r}; choose from {FIGURE_NAMES}")
