"""Parameter sweeps: closed form plus optional simulation and expansions,
emitted as CSV with a JSON run manifest.

A sweep walks scheme x rate x SNR-grid cells for one relay population.  The
grid is the total main-channel mean SNR, shared between the two hops by a
power split, unless a fixed hop is declared, in which case the grid drives
the other hop alone (the unbalanced experiment).  Figure presets reproduce
the published experiment parameterizations; presets whose curve families
differ in quantities the CSV schema does not carry (relay count, eavesdropper
level, pinned-hop level) expand to one labelled sweep per family member.

A simulated sweep runs one `simulate_outage` call per scheme, over every
(rate, grid) cell in rate-major order: the cells share uniforms and differ
only in link rates, so their estimates are correlated across the whole
sweep while each keeps its distribution.  The call is seeded as the scheme's
first cell was when every cell had its own substream, so the first rate's
`p_mc` are those of one call per (scheme, rate) curve; the other rates are
drawn anew.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass, fields
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
    _require_int,
    _require_object,
    _require_real,
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
    "render_csv",
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
        object.__setattr__(self, "snr_db", _require_real("fixed_hop.snr_db", self.snr_db))
        _check_db("fixed_hop.snr_db", (self.snr_db,))

    @property
    def rate(self) -> float:
        """Exponential rate of the pinned hop."""
        return 1.0 / db_to_linear(self.snr_db)


def _check_db(name: str, levels: Sequence[float]) -> None:
    """Refuse a dB level that db_to_linear refuses, naming the field."""
    for db in levels:
        try:
            db_to_linear(db)
        except ConfigError as exc:
            raise ConfigError(f"{name}: {exc}") from exc


def _reals(name: str, values: Sequence[float]) -> tuple[float, ...]:
    """A list field's entries as floats; a string, or an entry that is a
    string or a bool, raises ConfigError naming the field."""
    if isinstance(values, str):
        raise ConfigError(f"{name} must be a list of numbers, got {values!r}")
    return tuple(_require_real(f"{name} entry", v) for v in values)


def _ascending(name: str, values: Sequence[float]) -> tuple[float, ...]:
    vals = _reals(name, values)
    if not vals:
        raise ConfigError(f"{name} must be non-empty")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise ConfigError(f"{name} must be strictly ascending")
    return vals


def _scalar_or_each(name: str, value, count: int, per: str) -> float | tuple[float, ...]:
    """A scalar field as a float, or a sequence as a tuple of `count` floats,
    one per `per`."""
    if not isinstance(value, (tuple, list)):
        return _require_real(name, value)
    values = _reals(name, value)
    if len(values) != count:
        raise ConfigError(f"per-{per} {name} must have {count} entries, got {len(values)}")
    return values


def _each(value: float | tuple[float, ...], count: int) -> tuple[float, ...]:
    """A field normalised by _scalar_or_each, as its `count` per-item values."""
    return value if isinstance(value, tuple) else (value,) * count


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
        object.__setattr__(self, "n_relays", _require_int("n_relays", self.n_relays, 1))
        schemes = tuple(self.schemes)
        if not schemes:
            raise ConfigError("schemes must be non-empty")
        for s in schemes:
            if not isinstance(s, SelectionScheme):
                raise ConfigError(f"schemes entries must be SelectionScheme, got {s!r}")
            if s.kind == "SINGLE" and s.relay > self.n_relays:
                raise ConfigError(f"scheme {s.label} exceeds n_relays={self.n_relays}")
        if len(set(schemes)) < len(schemes):
            raise ConfigError(f"schemes must not repeat: {[s.label for s in schemes]}")
        object.__setattr__(self, "schemes", schemes)
        object.__setattr__(self, "power_split_sr", _scalar_or_each(
            "power_split_sr", self.power_split_sr, len(self.rates), "rate"))
        for f in _each(self.power_split_sr, len(self.rates)):
            if not (0.0 < f < 1.0):
                raise ConfigError(f"power_split_sr must lie in (0, 1), got {f!r}")
        object.__setattr__(self, "eaves_snr_db", _scalar_or_each(
            "eaves_snr_db", self.eaves_snr_db, self.n_relays, "relay"))
        _check_db("snr_grid_db", self.snr_grid_db)
        _check_db("eaves_snr_db", _each(self.eaves_snr_db, self.n_relays))
        object.__setattr__(self, "mc_trials", _require_int("mc_trials", self.mc_trials, 0))
        object.__setattr__(self, "seed", _require_seed(self.seed))
        if self.fixed_hop is not None and not isinstance(self.fixed_hop, FixedHop):
            raise ConfigError("fixed_hop must be a FixedHop or None")
        # Hop rates are monotone in the grid, so the first and last grid point
        # of each rate bound every cell's link rates.
        eves = self.eve_rates()
        for ri, rate in enumerate(self.rates):
            for grid_db in (self.snr_grid_db[0], self.snr_grid_db[-1]):
                try:
                    _build_config(self, eves, rate, self.split_for_rate(ri), grid_db)
                except ConfigError as exc:
                    raise ConfigError(f"cell at rate_rs {rate!r}, {grid_db!r} dB: {exc}") from exc

    def split_for_rate(self, rate_index: int) -> float:
        return _each(self.power_split_sr, len(self.rates))[rate_index]

    def eve_rates(self) -> tuple[float, ...]:
        return tuple(1.0 / db_to_linear(db) for db in _each(self.eaves_snr_db, self.n_relays))

    def to_dict(self) -> dict:
        """The spec as JSON data, field by field: tuples become lists and
        schemes their labels."""

        def plain(value):
            if isinstance(value, tuple):
                return [plain(v) for v in value]
            if isinstance(value, SelectionScheme):
                return value.label
            return asdict(value) if isinstance(value, FixedHop) else value

        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "SweepSpec":
        _require_object("sweep spec", data, (f.name for f in fields(cls)))
        try:
            kwargs = dict(data)
            if "schemes" in kwargs:
                labels = kwargs["schemes"]
                if isinstance(labels, str):
                    raise ConfigError(f"schemes must be a list of scheme labels, got {labels!r}")
                kwargs["schemes"] = tuple(
                    parse_scheme(s) if isinstance(s, str) else s for s in labels
                )
            fh = kwargs.get("fixed_hop")
            if isinstance(fh, dict):
                _require_object("fixed_hop", fh, (f.name for f in fields(FixedHop)))
                kwargs["fixed_hop"] = FixedHop(**fh)
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


def _cell_seed(seed: int, scheme_label: str) -> int:
    """Substream seed of one scheme's simulation: the seed its first cell
    (rate 0, grid point 0) had when every cell was drawn on its own."""
    import hashlib  # loads OpenSSL, which only simulated sweeps need

    text = f"{seed}:{scheme_label}:0:0".encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=8).digest(), "big")


def _build_config(
    spec: SweepSpec, eves: Sequence[float], rate: float, split: float, grid_db: float
) -> SystemConfig:
    """One cell's config, with `eves` the spec's eavesdropper rates."""
    if spec.fixed_hop is None:
        sr_rate, rd_rate = split_total_snr(db_to_linear(grid_db), split)
    else:
        pinned = spec.fixed_hop.rate
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
        res = asymp_single_unbalanced(spec.fixed_hop.rate, eves[k], rho, db_to_linear(grid_db))
        return res.value, res.floor
    if scheme.kind == "OS":
        if balanced:
            return asymp_os_balanced(eves, rho, 2.0 / composite).value, None
        pinned = [spec.fixed_hop.rate] * cfg.n_relays
        return None, asymp_os_unbalanced_floor(pinned, eves, rho).floor
    if scheme.kind == "TS" and balanced:
        return asymp_ts_balanced(eves, rho, 1.0 / composite).value, None
    return None, None


def run_sweep(spec: SweepSpec) -> list[SweepRow]:
    """One row per scheme x rate x grid point.

    Closed forms are always computed; expansion columns appear for schemes
    with a published high-SNR form.  Simulation columns appear when
    mc_trials > 0, from one simulate_outage call per scheme over all its
    (rate, grid) cells in rate-major order, seeded as the scheme's first cell.
    """
    rows: list[SweepRow] = []
    cells = [
        (rate, spec.split_for_rate(ri), grid_db)
        for ri, rate in enumerate(spec.rates)
        for grid_db in spec.snr_grid_db
    ]
    eves = spec.eve_rates()
    for scheme in spec.schemes:
        cfgs = (_build_config(spec, eves, *cell) for cell in cells)
        estimates = None
        if spec.mc_trials > 0:
            # The simulation takes every cell at once; without it each config
            # is built as its cell comes up, so its build time stays in that
            # cell's latency.
            cfgs = list(cfgs)
            estimates = simulate_outage(
                cfgs, scheme, spec.mc_trials, _cell_seed(spec.seed, scheme.label)
            )
        for k, ((rate, _, grid_db), cfg) in enumerate(zip(cells, cfgs)):
            closed = outage_for_scheme(cfg, scheme)
            p_mc = mc_stderr = None
            if estimates is not None:
                p_mc, mc_stderr = estimates[k].p_hat, estimates[k].std_err
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
