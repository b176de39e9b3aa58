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
consumes no randomness).  A call with more than one block runs them on a
thread pool capped at the available cores; each thread computes in its own
reused workspace, and no returned array aliases one.

Only the link rates turn ln(U) into link SNRs, so `simulate_outage` also takes
a sequence of configs with one relay count, such as the cells of a sweep
curve: each block's ln(U) is drawn once and every config divides it by its
own rates, a chunk of rows at a time.  Config i's estimate is bit-identical
to a call with that config alone; the estimates share their uniforms, so
they are correlated while each one's distribution is unchanged.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .closedform import select_ps
from .params import ConfigError, SelectionScheme, SystemConfig, _require_int, _require_seed

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
# Rows of a block turned into link SNRs at a time: the block's ln(U) and one
# chunk's links and metric scratch fill 4 * BLOCK_SIZE * n doubles.
_CHUNK = BLOCK_SIZE // 4
# Row indices of a chunk, made once: a fresh arange per block in every pool
# thread cost fig5 about 0.6 MB of peak RSS.
_ROWS = np.arange(_CHUNK)

# Per-thread block workspace, and the pool that runs a call's blocks.  Tests
# replace _pool to fix the worker count.
_local = threading.local()
_pool = None
_pool_lock = threading.Lock()


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


def _workspace(size: int, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """This thread's (size, n, 3) ln(U) block, and a chunk's (c, n, 3) link
    buffer and (c, n) metric scratch for c = min(size, _CHUNK): views of one
    flat buffer that grows to the largest block it has held, at most
    4 * BLOCK_SIZE * n doubles."""
    chunk = min(size, _CHUNK)
    logu, links, need = 3 * size * n, 3 * chunk * n, (3 * size + 4 * chunk) * n
    buf = getattr(_local, "buf", None)
    if buf is None or buf.size < need:
        buf = _local.buf = np.empty(need)
    return (
        buf[:logu].reshape(size, n, 3),
        buf[logu : logu + links].reshape(chunk, n, 3),
        buf[logu + links : need].reshape(chunk, n),
    )


def _draw(
    rng: np.random.Generator, size: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """ln(U) of `size` trials, (size, n, 3) in (sr, rd, eve) order, from 3
    uniforms per relay taken in trial, relay, link order, plus the chunk
    buffers.  All three are this thread's workspace; exact-zero uniforms are
    redrawn from `rng` so ln(U) stays finite."""
    logu, links, scratch = _workspace(size, n)
    rng.random(out=logu)
    while not logu.all():
        zero = logu == 0.0
        logu[zero] = rng.random(int(zero.sum()))
    np.log(logu, out=logu)
    return logu, links, scratch


def _neg_rates(cfg: SystemConfig) -> np.ndarray:
    """-rate of every link, (n, 3): ln(U) / -rate is -ln(U) / rate to the bit."""
    return -np.array([[r.sr_rate, r.rd_rate, r.eve_rate] for r in cfg.relays])


def sample_realization(cfg: SystemConfig, rng: np.random.Generator) -> ChannelRealization:
    """Draw one channel realization, a one-trial block; consumes 3 uniforms
    per relay, so successive calls walk the stream a block would draw."""
    g = _draw(rng, 1, cfg.n_relays)[0][0] / _neg_rates(cfg)
    return ChannelRealization(
        gamma_sr=tuple(g[:, 0]), gamma_rd=tuple(g[:, 1]), gamma_eve=tuple(g[:, 2])
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
    g = np.array([list(zip(r.gamma_sr, r.gamma_rd, r.gamma_eve))], dtype=np.float64)
    g[:, :, 2] += 1.0
    return int(np.atleast_1d(_select(scheme, cfg, g, np.empty(g.shape[:2])))[0]) + 1


def _select(
    scheme: SelectionScheme, cfg: SystemConfig, g: np.ndarray, scratch: np.ndarray
) -> int | np.ndarray:
    """0-based selected relay per trial, on links whose eavesdropper column
    holds 1 + gamma_eve; a plain int for the rules that ignore the fading.
    np.argmax keeps the lowest tie."""
    if scheme.kind in ("SINGLE", "PS"):
        return (scheme.relay if scheme.kind == "SINGLE" else select_ps(cfg)) - 1
    if scheme.kind == "SS-RD":
        return np.argmax(g[:, :, 1], axis=1)
    if scheme.kind == "SS-SR":
        return np.argmax(g[:, :, 0], axis=1)
    metric = np.minimum(g[:, :, 0], g[:, :, 1], out=scratch)
    if scheme.kind == "OS":
        # (1 + main) / (1 + eve), clipped at 1 as the secrecy rate clips at
        # zero: every zero-rate branch ties, so the lowest index wins among them.
        metric += 1.0
        metric /= g[:, :, 2]
        np.maximum(metric, 1.0, out=metric)
    elif scheme.kind == "SS-RE":
        metric *= np.array([r.eve_rate for r in cfg.relays])
    return np.argmax(metric, axis=1)


def _block_outages(
    scheme: SelectionScheme,
    cfgs: tuple[SystemConfig, ...],
    neg_rates: list[np.ndarray],
    seed: int,
    block_index: int,
    outs: list[np.ndarray],
) -> np.ndarray:
    """Outage flags of block `block_index`'s trials under each config, from
    one draw of len(outs[0]) trials; config i's flags are written to outs[i]
    and its count is entry i of the result."""
    size, n = len(outs[0]), cfgs[0].n_relays
    logu, links, scratch = _draw(block_generator(seed, block_index), size, n)
    counts = np.zeros(len(cfgs), dtype=np.int64)
    # Each trial's first relay among a chunk's links viewed as (c * n, 3).
    first_relay = _ROWS[: len(links)] * n
    # Chunk-major, so a chunk of ln(U) stays in cache while every config reads it.
    for lo in range(0, size, len(links)):
        hi = min(lo + len(links), size)
        for i, (cfg, rates, out) in enumerate(zip(cfgs, neg_rates, outs)):
            g = np.divide(logu[lo:hi], rates, out=links[: hi - lo])
            g[:, :, 2] += 1.0
            idx = _select(scheme, cfg, g, scratch[: hi - lo])
            # The chosen relay's three links; take is a faster g[rows, idx].
            chosen = g.reshape(-1, 3).take(first_relay[: hi - lo] + idx, axis=0)
            main = np.minimum(chosen[:, 0], chosen[:, 1], out=chosen[:, 0])
            main += 1.0
            chosen[:, 2] *= cfg.rho
            # C_S < R_s  <=>  (1 + main) < rho * (1 + eve) for rho > 1; the
            # comparison stays correct when the secrecy rate clips to zero.
            flags = np.less(main, chosen[:, 2], out=out[lo:hi])
            counts[i] += np.count_nonzero(flags)
    return counts


def _cores() -> int:
    """Cores this process may run on (all of them without an affinity query)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor():
    """The shared block pool, one worker per available core, made on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor

            _pool = ThreadPoolExecutor(_cores(), thread_name_prefix="relaysec-mc")
        return _pool


def _forget_pool() -> None:
    """A forked child has none of its parent's pool threads: start afresh."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _configs(cfg: SystemConfig | Sequence[SystemConfig]) -> tuple[SystemConfig, ...]:
    """One config, or a non-empty sequence of configs with one relay count,
    as a tuple."""
    if isinstance(cfg, SystemConfig):
        return (cfg,)
    cfgs = tuple(cfg) if isinstance(cfg, (list, tuple)) else ()
    if not cfgs or not all(isinstance(c, SystemConfig) for c in cfgs):
        raise ConfigError(
            f"expected a SystemConfig or a non-empty sequence of them, got {cfg!r}"
        )
    if len({c.n_relays for c in cfgs}) > 1:
        raise ConfigError("configs simulated on one draw must share one relay count")
    return cfgs


def _run_blocks(
    cfgs: tuple[SystemConfig, ...],
    scheme: SelectionScheme,
    trials: int,
    seed: int,
    keep_flags: bool,
) -> tuple[int, int, np.ndarray, np.ndarray | None]:
    """Shared body of the simulators: validated (trials, seed), each config's
    outage count summed in block order, and, if kept, the per-trial flags of
    the one config, which each block writes into its own slice."""
    for cfg in cfgs:
        scheme.validate_for(cfg)
    trials = _require_int("trials", trials, 1)
    seed = _require_seed(seed)
    flags = np.empty(trials, dtype=bool) if keep_flags else None
    neg_rates = [_neg_rates(cfg) for cfg in cfgs]

    def block(b: int) -> np.ndarray:
        lo, hi = b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, trials)
        # Without kept flags the configs take turns in one array, each
        # counted before the next one writes.
        outs = [np.empty(hi - lo, dtype=bool)] * len(cfgs) if flags is None else [flags[lo:hi]]
        return _block_outages(scheme, cfgs, neg_rates, seed, b, outs)

    n_blocks = -(-trials // BLOCK_SIZE)
    if n_blocks == 1:
        return trials, seed, block(0), flags
    # A few blocks per core are in flight at once, so a call of any length
    # holds a bounded number of futures; counts are summed in block order.
    pool, window, pending = _executor(), 4 * _cores(), deque()
    outages = np.zeros(len(cfgs), dtype=np.int64)
    for b in range(n_blocks):
        if len(pending) == window:
            outages += pending.popleft().result()
        pending.append(pool.submit(block, b))
    for f in pending:
        outages += f.result()
    return trials, seed, outages, flags


def simulate_outage(
    cfg: SystemConfig | Sequence[SystemConfig],
    scheme: SelectionScheme,
    trials: int,
    seed: int,
) -> MonteCarloEstimate | tuple[MonteCarloEstimate, ...]:
    """Empirical secrecy outage probability over `trials` seeded trials.

    Given a sequence of configs with one relay count, returns a tuple with
    one estimate per config, all from one draw: entry i equals
    simulate_outage(cfg[i], scheme, trials, seed).
    """
    cfgs = _configs(cfg)
    trials, seed, outages, _ = _run_blocks(cfgs, scheme, trials, seed, keep_flags=False)
    estimates = []
    for count in outages:
        p_hat = int(count) / trials
        std_err = math.sqrt(p_hat * (1.0 - p_hat) / trials)
        estimates.append(MonteCarloEstimate(p_hat=p_hat, trials=trials, std_err=std_err, seed=seed))
    return estimates[0] if isinstance(cfg, SystemConfig) else tuple(estimates)


def outage_flags(
    cfg: SystemConfig, scheme: SelectionScheme, trials: int, seed: int
) -> np.ndarray:
    """Per-trial outage indicators, same stream as simulate_outage.

    Different schemes evaluated at one seed share identical realizations,
    which makes pathwise comparisons between selection rules possible.
    """
    return _run_blocks((cfg,), scheme, trials, seed, keep_flags=True)[3]
