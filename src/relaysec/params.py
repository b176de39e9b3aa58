"""Problem-instance data model: per-relay link statistics and system config.

Every link is flat Rayleigh faded, so its instantaneous SNR is exponential.
We store the exponential *rate* parameter of each link (mean link SNR is the
reciprocal, on a linear scale).  All user-facing surfaces take mean SNRs in
power decibels and convert once at ingestion; everything downstream works in
rates.  Every link's mean SNR must lie within ±300 dB, wide physical
headroom in which no closed form or simulated SNR leaves float64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable

__all__ = [
    "ConfigError",
    "CancellationError",
    "RelayLinkParams",
    "SystemConfig",
    "SelectionScheme",
    "OS",
    "TS",
    "SS_RE",
    "SS_RD",
    "SS_SR",
    "PS",
    "single",
    "ALL_SCHEMES",
    "parse_scheme",
    "rho_of_rate",
    "db_to_linear",
    "split_total_snr",
]


class ConfigError(ValueError):
    """Raised for invalid parameters or malformed configuration input."""


class CancellationError(ArithmeticError):
    """A float64 evaluation failed: a value or a summed term was non-finite,
    or an outage left [0, 1] by more than round-off."""


def _require_positive_finite(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ConfigError(f"{name} must be a positive finite real, got {value!r}")
    return value


def _require_real(name: str, value: float) -> float:
    """`value` as a float; a string or a bool raises ConfigError rather than
    being parsed or read as 0 or 1.  What float() itself refuses (None)
    raises as float() does."""
    if isinstance(value, (str, bool)):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def _require_object(name: str, data: dict, known: Iterable[str]) -> None:
    """Refuse, with ConfigError, `data` that is not a JSON object or holds a
    key outside `known`, naming every such key: a misspelt key is an error,
    not a default."""
    if not isinstance(data, dict):
        raise ConfigError(f"{name} must be a JSON object, got {data!r}")
    unknown = set(data) - set(known)
    if unknown:
        raise ConfigError(f"unknown {name} fields: {sorted(unknown)}")


def _require_int(name: str, value: int, minimum: int) -> int:
    """`value` as an int no less than `minimum`.

    Integral numbers such as 1e5 pass; 2.5, inf, nan, "3" or True raise
    ConfigError rather than being truncated, parsed or read as 1.  What int()
    itself refuses ("abc", None) raises as int() does.
    """
    if (isinstance(value, bool) or isinstance(value, float) and not value.is_integer()
            or int(value) != value):
        raise ConfigError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{name} must be >= {minimum}, got {value!r}")
    return int(value)


def _require_seed(seed: int) -> int:
    """A seed as an int in the 64-bit range the Philox substream keys take."""
    seed = _require_int("seed", seed, 0)
    if seed >= 1 << 64:
        raise ConfigError(f"seed must fit in 64 bits, got {seed!r}")
    return seed


def rho_of_rate(rate_rs: float) -> float:
    """SNR-ratio threshold 2^(2*rate_rs) equivalent to a target secrecy rate.

    The factor 2 in the exponent accounts for the two-slot dual-hop
    transmission.  Strictly increasing in the rate; > 1 for any positive rate.
    """
    rate_rs = _require_positive_finite("rate_rs", rate_rs)
    if rate_rs >= 512.0:
        raise ConfigError(f"rate_rs must be below 512, where rho overflows, got {rate_rs!r}")
    return 2.0 ** (2.0 * rate_rs)


def db_to_linear(value_db: float) -> float:
    """Power decibels to linear ratio, 10^(dB/10); a ratio that overflows
    float64 or underflows to 0 raises ConfigError."""
    value_db = float(value_db)
    if not math.isfinite(value_db):
        raise ConfigError(f"dB value must be finite, got {value_db!r}")
    try:
        value = 10.0 ** (value_db / 10.0)
    except OverflowError:
        value = math.inf
    if not 0.0 < value < math.inf:
        raise ConfigError(f"dB value {value_db!r} is outside the float64 range")
    return value


# The accepted link rates: ±300 dB converted as from_mean_snr_db does, so both ends pass.
_SNR_LIMIT_DB = 300.0
_MIN_RATE = 1.0 / db_to_linear(_SNR_LIMIT_DB)
_MAX_RATE = 1.0 / db_to_linear(-_SNR_LIMIT_DB)


def split_total_snr(total_snr_linear: float, fraction_sr: float) -> tuple[float, float]:
    """Share a total mean SNR between the two hops; returns the two rates.

    `fraction_sr` of the total goes to the source-relay hop, the remainder to
    the relay-destination hop.  The mean SNRs 1/rate conserve the total.
    """
    total_snr_linear = _require_positive_finite("total_snr_linear", total_snr_linear)
    fraction_sr = float(fraction_sr)
    if not (0.0 < fraction_sr < 1.0):
        raise ConfigError(f"fraction_sr must lie in (0, 1), got {fraction_sr!r}")
    return (
        1.0 / (fraction_sr * total_snr_linear),
        1.0 / ((1.0 - fraction_sr) * total_snr_linear),
    )


@dataclass(frozen=True)
class RelayLinkParams:
    """Exponential rate parameters of one relay's three links.

    sr_rate:  source -> relay link SNR rate
    rd_rate:  relay -> destination link SNR rate
    eve_rate: relay -> eavesdropper link SNR rate
    """

    sr_rate: float
    rd_rate: float
    eve_rate: float

    def __post_init__(self) -> None:
        for name in ("sr_rate", "rd_rate", "eve_rate"):
            rate = float(getattr(self, name))
            if not _MIN_RATE <= rate <= _MAX_RATE:
                raise ConfigError(f"{name} must be a rate in [{_MIN_RATE!r}, {_MAX_RATE!r}], "
                                  f"a mean SNR within ±{_SNR_LIMIT_DB:g} dB, got {rate!r}")

    @property
    def main_rate(self) -> float:
        """Rate of the min-of-hops SNR: the two hop rates add."""
        return self.sr_rate + self.rd_rate

    @classmethod
    def from_mean_snr_db(cls, sr_db: float, rd_db: float, eve_db: float) -> "RelayLinkParams":
        """Build from per-link mean SNRs in dB."""
        return cls(
            sr_rate=1.0 / db_to_linear(sr_db),
            rd_rate=1.0 / db_to_linear(rd_db),
            eve_rate=1.0 / db_to_linear(eve_db),
        )


@dataclass(frozen=True)
class SystemConfig:
    """A complete problem instance: the relay set plus the target secrecy rate,
    whose threshold `rho` is derived once, outside comparison and repr."""

    relays: tuple[RelayLinkParams, ...]
    rate_rs: float
    rho: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        relays = tuple(self.relays)
        if len(relays) < 1:
            raise ConfigError("at least one relay is required")
        for r in relays:
            if not isinstance(r, RelayLinkParams):
                raise ConfigError(f"relay entries must be RelayLinkParams, got {type(r).__name__}")
        object.__setattr__(self, "relays", relays)
        object.__setattr__(self, "rho", rho_of_rate(self.rate_rs))

    @property
    def n_relays(self) -> int:
        return len(self.relays)


_SCHEME_KINDS = ("OS", "TS", "SS-RE", "SS-RD", "SS-SR", "PS", "SINGLE")


@dataclass(frozen=True)
class SelectionScheme:
    """One of the relay-selection policies, or a pinned single relay.

    OS     pick the relay with the best instantaneous secrecy rate
    TS     pick the relay with the best min-of-hops main-channel SNR
    SS-RE  pick by main-channel SNR weighted by the eavesdropper link rate
    SS-RD  pick by the relay-destination hop SNR alone
    SS-SR  pick by the source-relay hop SNR alone
    PS     pick the statistics-only outage-minimising relay (no fading input)
    SINGLE always use relay `relay` (1-based)
    """

    kind: str
    relay: int | None = None

    def __post_init__(self) -> None:
        if self.kind not in _SCHEME_KINDS:
            raise ConfigError(f"unknown selection scheme {self.kind!r}")
        if self.kind == "SINGLE":
            if self.relay is None:
                raise ConfigError("SINGLE scheme needs a 1-based relay index")
            object.__setattr__(self, "relay", _require_int("relay", self.relay, 1))
        elif self.relay is not None:
            raise ConfigError(f"{self.kind} takes no relay index")

    @property
    def label(self) -> str:
        if self.kind == "SINGLE":
            return f"SINGLE:{self.relay}"
        return self.kind

    def validate_for(self, cfg: SystemConfig) -> None:
        if self.kind == "SINGLE" and not (1 <= self.relay <= cfg.n_relays):
            raise ConfigError(
                f"relay index {self.relay} out of range 1..{cfg.n_relays}"
            )


OS = SelectionScheme("OS")
TS = SelectionScheme("TS")
SS_RE = SelectionScheme("SS-RE")
SS_RD = SelectionScheme("SS-RD")
SS_SR = SelectionScheme("SS-SR")
PS = SelectionScheme("PS")

ALL_SCHEMES = (OS, TS, SS_RE, SS_RD, SS_SR, PS)


def single(relay: int) -> SelectionScheme:
    """Scheme that always transmits through the given 1-based relay."""
    return SelectionScheme("SINGLE", relay)


def parse_scheme(text: str) -> SelectionScheme:
    """Parse a scheme label such as 'OS', 'ss-rd' or 'SINGLE:2'."""
    t = text.strip().upper().replace("_", "-")
    if t.startswith("SINGLE:"):
        try:
            return single(int(t.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"bad relay index in scheme {text!r}") from exc
    if t in _SCHEME_KINDS and t != "SINGLE":
        return SelectionScheme(t)
    raise ConfigError(f"unknown selection scheme {text!r}")
