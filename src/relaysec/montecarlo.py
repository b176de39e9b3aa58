"""Seeded channel simulator: the universal oracle for the closed forms.

Each trial draws one exponential SNR per link by inverse CDF
(gamma = -ln(U)/rate), applies a selection rule to the realization, and marks
an outage when the selected relay's instantaneous secrecy rate falls strictly
below the target.

Sampling and selection exist once, on the vectorised block path; the scalar
helpers are size-1 views of it.  `sample_realization` draws a one-trial block
in the same stream order, and `apply_selection` runs the block rule on a
one-row realization, so it picks exactly what the simulator picks.

Determinism contract: trials are partitioned into fixed-size blocks; block b
draws from a counter-based substream keyed by (seed, b), and block counts are
reduced in block order.  The estimate is therefore bit-identical for a given
(config, scheme, trials, seed) at any degree of parallelism, and every scheme
simulated at the same seed sees the same channel realizations (selection
consumes no randomness).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .closedform import select_ps
from .params import ConfigError, SelectionScheme, SystemConfig, _require_seed

__all__ = [
    "BLOCK_SIZE",
    "ChannelRealization",
    "MonteCarloEstimate",
    "block_generator",
    "sample_realization",
    "secrecy_rate",
    "apply_selection",
    "simulate_outage",
    "outage_flags",
]

BLOCK_SIZE = 1 << 14


@dataclass(frozen=True)
class ChannelRealization:
    """Instantaneous linear SNRs of every link, one entry per relay."""

    gamma_sr: tuple[float, ...]
    gamma_rd: tuple[float, ...]
    gamma_eve: tuple[float, ...]

    def __post_init__(self) -> None:
        n = len(self.gamma_sr)
        if not (len(self.gamma_rd) == len(self.gamma_eve) == n) or n < 1:
            raise ConfigError("realization arrays must share one length >= 1")
        for seq in (self.gamma_sr, self.gamma_rd, self.gamma_eve):
            for v in seq:
                if not math.isfinite(v) or v < 0.0:
                    raise ConfigError(f"SNR values must be finite and >= 0, got {v!r}")

    @property
    def n_relays(self) -> int:
        return len(self.gamma_sr)

    @property
    def gamma_main(self) -> tuple[float, ...]:
        """Usable branch SNR per relay: min of the two hop SNRs."""
        return tuple(min(s, d) for s, d in zip(self.gamma_sr, self.gamma_rd))


@dataclass(frozen=True)
class MonteCarloEstimate:
    """Empirical outage probability with its Wald standard error."""

    p_hat: float
    trials: int
    std_err: float
    seed: int


def block_generator(seed: int, block_index: int) -> np.random.Generator:
    """Counter-based substream for one block, independent across blocks."""
    seed = _require_seed(seed)
    return np.random.Generator(np.random.Philox(key=(seed << 64) + block_index))


def _uniforms(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform(0,1) variates; exact zeros are redrawn to keep -ln(U) finite."""
    u = rng.random(shape)
    while True:
        zero = u == 0.0
        if not zero.any():
            return u
        u[zero] = rng.random(int(zero.sum()))


def _draw(
    cfg: SystemConfig, rng: np.random.Generator, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gamma_sr, gamma_rd, gamma_eve), each (size, n_relays), from `size`
    trials of 3 uniforms per relay taken in trial, relay, link order."""
    rates = np.array(
        [[r.sr_rate, r.rd_rate, r.eve_rate] for r in cfg.relays], dtype=np.float64
    )
    g = -np.log(_uniforms(rng, (size, cfg.n_relays, 3))) / rates[None, :, :]
    return g[:, :, 0], g[:, :, 1], g[:, :, 2]


def sample_realization(cfg: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization, a one-trial block; consumes 3 uniforms
    per relay, so successive calls walk the stream a block would draw."""
    gs, gd, ge = _draw(cfg, rng, 1)
    return ChannelRealization(
        gamma_sr=tuple(gs[0]), gamma_rd=tuple(gd[0]), gamma_eve=tuple(ge[0])
    )


def secrecy_rate(gamma_main: float, gamma_eve: float) -> float:
    """Instantaneous secrecy rate of one branch, clipped at zero.

    Half of log2((1 + main SNR) / (1 + eavesdropper SNR)); the half reflects
    the two-slot dual-hop transmission.
    """
    value = 0.5 * math.log2((1.0 + gamma_main) / (1.0 + gamma_eve))
    return value if value > 0.0 else 0.0


def apply_selection(
    scheme: SelectionScheme, cfg: SystemConfig, realization: ChannelRealization
) -> int:
    """1-based index of the relay the scheme picks; ties break to the lowest.

    Runs the simulator's block rule on a one-row realization.
    """
    scheme.validate_for(cfg)
    if realization.n_relays != cfg.n_relays:
        raise ConfigError("realization arity does not match the config")
    r = realization
    gs, gd, ge = np.array([[r.gamma_sr], [r.gamma_rd], [r.gamma_eve]], dtype=np.float64)
    return int(_select_block(scheme, cfg, gs, gd, ge)[0]) + 1


def _sample_block(
    cfg: SystemConfig, seed: int, block_index: int, size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `size` trials of block `block_index`, drawn from its own substream."""
    return _draw(cfg, block_generator(seed, block_index), size)


def _select_block(
    scheme: SelectionScheme,
    cfg: SystemConfig,
    gs: np.ndarray,
    gd: np.ndarray,
    ge: np.ndarray,
) -> np.ndarray:
    """0-based selected relay per trial; np.argmax keeps the lowest tie."""
    if scheme.kind in ("SINGLE", "PS"):
        fixed = scheme.relay if scheme.kind == "SINGLE" else select_ps(cfg)
        return np.full(gs.shape[0], fixed - 1, dtype=np.intp)
    gmain = np.minimum(gs, gd)
    if scheme.kind == "OS":
        # Clipping the ratio at 1 mirrors the secrecy rate clipping at zero:
        # every zero-rate branch ties, so the lowest index wins among them.
        metric = np.maximum((1.0 + gmain) / (1.0 + ge), 1.0)
    elif scheme.kind == "TS":
        metric = gmain
    elif scheme.kind == "SS-RE":
        eve_rates = np.array([r.eve_rate for r in cfg.relays])
        metric = gmain * eve_rates[None, :]
    elif scheme.kind == "SS-RD":
        metric = gd
    else:  # SS-SR
        metric = gs
    return np.argmax(metric, axis=1)


def _outage_block(
    scheme: SelectionScheme,
    cfg: SystemConfig,
    seed: int,
    block_index: int,
    size: int,
) -> np.ndarray:
    gs, gd, ge = _sample_block(cfg, seed, block_index, size)
    idx = _select_block(scheme, cfg, gs, gd, ge)
    rows = np.arange(size)
    gmain = np.minimum(gs[rows, idx], gd[rows, idx])
    geve = ge[rows, idx]
    # C_S < R_s  <=>  (1 + main) < rho * (1 + eve) for rho > 1; the
    # comparison stays correct when the secrecy rate clips to zero.
    return (1.0 + gmain) < cfg.rho * (1.0 + geve)


def _run_blocks(
    cfg: SystemConfig, scheme: SelectionScheme, trials: int, seed: int
) -> tuple[int, int, Iterator[np.ndarray]]:
    """Shared prologue of the simulators: validated (trials, seed) and the
    lazily computed per-block outage flags, in block order."""
    scheme.validate_for(cfg)
    trials = int(trials)
    if trials < 1:
        raise ConfigError(f"trials must be >= 1, got {trials!r}")
    seed = _require_seed(seed)
    full, rem = divmod(trials, BLOCK_SIZE)
    sizes = [BLOCK_SIZE] * full + ([rem] if rem else [])
    blocks = (_outage_block(scheme, cfg, seed, b, n) for b, n in enumerate(sizes))
    return trials, seed, blocks


def simulate_outage(
    cfg: SystemConfig, scheme: SelectionScheme, trials: int, seed: int
) -> MonteCarloEstimate:
    """Empirical secrecy outage probability over `trials` seeded trials."""
    trials, seed, blocks = _run_blocks(cfg, scheme, trials, seed)
    p_hat = sum(int(flags.sum()) for flags in blocks) / trials
    std_err = math.sqrt(p_hat * (1.0 - p_hat) / trials)
    return MonteCarloEstimate(p_hat=p_hat, trials=trials, std_err=std_err, seed=seed)


def outage_flags(
    cfg: SystemConfig, scheme: SelectionScheme, trials: int, seed: int
) -> np.ndarray:
    """Per-trial outage indicators, same stream as simulate_outage.

    Different schemes evaluated at one seed share identical realizations,
    which makes pathwise comparisons between selection rules possible.
    """
    _, _, blocks = _run_blocks(cfg, scheme, trials, seed)
    return np.concatenate(list(blocks))
