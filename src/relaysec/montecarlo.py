"""Seeded channel simulator: the universal oracle for the closed forms.

Each trial draws one exponential SNR per link by inverse CDF
(gamma = -ln(U)/rate), applies a selection rule to the realization, and marks
an outage when the selected relay's instantaneous secrecy rate falls strictly
below the target.

Determinism contract: trials are partitioned into fixed-size blocks; block b
draws from a counter-based substream keyed by (seed, b), and block counts are
reduced in block order.  The estimate is therefore bit-identical for a given
(config, scheme, trials, seed) at any degree of parallelism, and every scheme
simulated at the same seed sees the same channel realizations (selection
consumes no randomness).  A call with more than one block runs them on a
thread pool of its own, capped at the available cores, that ends with the
call; each thread computes in its own reused workspace, and no returned
array aliases one.

Only the link rates turn ln(U) into link SNRs, so `simulate_outage` also takes
a sequence of configs with one relay count, such as every cell of one
scheme's sweep, and scores them all on one draw: config i's estimate is
bit-identical to a call with that config alone; the estimates share their
uniforms, so they are correlated while each one's distribution is unchanged.

A block is drawn and scored a chunk of trials at a time.  Each chunk's
uniforms come straight from the block's generator, so successive chunks hold
exactly the values of one whole-block draw, and a block of `size` trials
consumes exactly size * N * 3 uniforms of its substream.  An exact 0.0 is
read as 2**-54, the midpoint of the generator's first step of 2**-53, so
ln(U) stays finite.  Every config of the call is scored on the chunk at
once: the link SNRs the scheme compares are laid out (config, relay, trial),
the selected relay is the first maximum over the relay axis (PS and a pinned
relay have fixed picks), and only its links are gathered into SNRs for the
outage test.  The rows per chunk keep a thread's workspace within
4 * BLOCK_SIZE * N doubles unless one row of every config needs more, and
each rule is charged only for what it holds: the chunk's uniforms and ln(U),
the link planes it compares per config (none for PS and a pinned relay, one
for SS-RD and SS-SR, two for the others) and a few per-trial arrays, the
gather's among them reusing the metric's plane once the maximum is found.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .closedform import select_ps
from .params import ConfigError, SelectionScheme, SystemConfig, _require_int, _require_seed

__all__ = [
    "BLOCK_SIZE",
    "MonteCarloEstimate",
    "block_generator",
    "simulate_outage",
    "outage_flags",
]

BLOCK_SIZE = 1 << 14
# A thread's chunk workspace holds at most this many doubles per relay.
_WORKSPACE = 4 * BLOCK_SIZE

# Per-thread chunk workspace.
_local = threading.local()


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


def _uniforms(rng: np.random.Generator, u: np.ndarray) -> np.ndarray:
    """u filled from rng in C order, an exact 0.0 read as 2**-54, the
    midpoint of the generator's first step, so ln(U) stays finite."""
    rng.random(out=u)
    if not u.all():
        u[u == 0.0] = 2.0**-54
    return u


def _neg_rates(cfgs: Sequence[SystemConfig]) -> np.ndarray:
    """-rate of every link, link-major (3, configs, n): ln(U) / -rate is
    -ln(U) / rate to the bit."""
    links = [[[r.sr_rate, r.rd_rate, r.eve_rate] for r in c.relays] for c in cfgs]
    return -np.array(links, dtype=np.float64).transpose(2, 0, 1).copy()


def _fixed_picks(scheme: SelectionScheme, cfgs: Sequence[SystemConfig]) -> np.ndarray | None:
    """0-based relay of each config for the rules that ignore the fading;
    None for the rules that compare it."""
    if scheme.kind == "SINGLE":
        return np.full(len(cfgs), scheme.relay - 1, dtype=np.intp)
    if scheme.kind == "PS":
        return np.array([select_ps(c) - 1 for c in cfgs], dtype=np.intp)
    return None


def _link(links: np.ndarray, neg_rates: np.ndarray, link: int, out: np.ndarray) -> np.ndarray:
    """One link's SNR on every relay, (configs, n, r), from a chunk's ln(U)
    laid out (3, n, r) and the configs' negated rates (3, configs, n)."""
    return np.divide(links[link], neg_rates[link, :, :, None], out=out)


def _metric(
    scheme: SelectionScheme,
    links: np.ndarray,
    neg_rates: np.ndarray,
    eve_weights: np.ndarray,
    a: np.ndarray,
    b: np.ndarray,
) -> np.ndarray:
    """The quantity the scheme maximises over relays, (configs, n, r): in a
    for SS-RD and SS-SR, which hold one plane (b may be None), and in b for
    the others; only the link planes it compares are divided.  OS leaves
    1 + main SNR in a, and SS-RE the main SNR."""
    kind = scheme.kind
    if kind in ("SS-RD", "SS-SR"):
        return _link(links, neg_rates, 1 if kind == "SS-RD" else 0, a)
    rd = _link(links, neg_rates, 1, b)
    if kind == "TS":
        return np.minimum(_link(links, neg_rates, 0, a), rd, out=b)
    main = np.minimum(_link(links, neg_rates, 0, a), rd, out=a)
    if kind == "SS-RE":
        return np.multiply(main, eve_weights, out=b)
    # OS: (1 + main) / (1 + eve), clipped at 1 as the secrecy rate clips at
    # zero: every zero-rate branch ties, so the lowest index wins among them.
    main += 1.0
    eve = _link(links, neg_rates, 2, b)
    eve += 1.0
    metric = np.divide(main, eve, out=b)
    return np.maximum(metric, 1.0, out=metric)


def _first_max(
    metric: np.ndarray, top: np.ndarray, idx: np.ndarray, run: np.ndarray, ne: np.ndarray
) -> np.ndarray:
    """np.argmax(metric, axis=1) into idx, by whole-array passes, with each
    row's maximum in top: idx counts the leading relays below the maximum,
    so the lowest index wins among equal maxima.  The metric holds no NaN."""
    n = metric.shape[1]
    np.max(metric, axis=1, out=top)
    np.not_equal(metric[:, 0], top, out=run)
    np.copyto(idx, run)
    for j in range(1, n - 1):
        run &= np.not_equal(metric[:, j], top, out=ne)
        idx += run
    return idx


# Link planes each rule holds per config: the fixed picks compare no link,
# SS-RD and SS-SR one hop, the others two.
_PLANES = {"PS": 0, "SINGLE": 0, "SS-RD": 1, "SS-SR": 1, "OS": 2, "TS": 2, "SS-RE": 2}


class _Curve:
    """What every block of one call reads: the configs' rates, the fixed
    picks, and the rows per chunk for blocks of up to `size` trials."""

    __slots__ = ("scheme", "n", "k", "neg_rates", "eve_weights", "rho", "picks", "picked_rates",
                 "planes", "rows", "trial_offsets", "config_offsets")

    def __init__(self, scheme: SelectionScheme, cfgs: tuple[SystemConfig, ...], size: int):
        self.scheme, self.n, self.k = scheme, cfgs[0].n_relays, len(cfgs)
        self.neg_rates = _neg_rates(cfgs)
        # SS-RE's per-relay weights, (configs, n, 1): the eavesdropper rates.
        self.eve_weights = -self.neg_rates[2, :, :, None]
        self.rho = np.array([[c.rho] for c in cfgs], dtype=np.float64)
        self.picks = _fixed_picks(scheme, cfgs)
        # Each link's negated rate of the fixed pick, (3, configs, 1).
        self.picked_rates = (None if self.picks is None
                             else self.neg_rates[:, np.arange(self.k), self.picks, None])
        self.planes = _PLANES[scheme.kind]
        # Counted in eighths of a double, as many rows as fit the workspace,
        # and at least one.
        doubles, bools = _regions(1, self.n, self.k, self.planes)
        row = 8 * sum(doubles) + bools * self.k
        self.rows = min(size, max(1, 8 * _WORKSPACE * self.n // row))
        # Flat offsets of a chunk's trials in one link's (n, rows) ln(U), and
        # of the configs in one link's (configs, n) rates.
        self.trial_offsets = np.arange(self.rows, dtype=np.intp)
        self.config_offsets = np.arange(self.k, dtype=np.intp)[:, None] * self.n


def _regions(rows: int, n: int, k: int, planes: int) -> tuple[list[int], int]:
    """The chunk buffer of `rows` trials of k configs of n relays under a
    rule that holds `planes` link planes: the doubles of each array in
    buffer order, and the number of (configs, rows) bool arrays after them.
    The uniforms and their ln(U) link-major come first, then the planes, then
    top and either idx (a metric rule) or x (the fixed picks); the bools are
    _first_max's two and the flags, or the flags alone.  A metric rule's
    gather scratch (x, tmp, pos) goes in its last plane, dead once _first_max
    has run, so that plane is at least 3 relays deep.  At fig5's shape
    (N = 4, 26 configs) this gives 3,307 rows per chunk for PS and a pinned
    relay, 1,381 for SS-RD and SS-SR and 892 for the others."""
    held = [k * n * rows] * (planes - 1) + [k * max(n, 3) * rows] if planes else []
    return [3 * n * rows] * 2 + held + [k * rows] * 2, 3 if planes else 1


class _Views(NamedTuple):
    u: np.ndarray  # (rows, n, 3), the chunk's uniforms as drawn
    links: np.ndarray  # (3, n, rows), their ln(U) link-major
    a: np.ndarray | None  # (configs, n, rows) link planes, those the rule holds
    b: np.ndarray | None
    top: np.ndarray  # (configs, rows) each from here on
    x: np.ndarray
    tmp: np.ndarray | None  # None, as are the rest but flags, for the fixed picks
    idx: np.ndarray | None
    pos: np.ndarray | None
    run: np.ndarray | None
    ne: np.ndarray | None
    flags: np.ndarray


def _workspace(rows: int, n: int, k: int, planes: int) -> _Views:
    """This thread's chunk buffers for `rows` trials of k configs of n
    relays under a rule that holds `planes` link planes, laid out by
    _regions: views of one flat buffer that grows to the largest need it has
    met, and to no less than _WORKSPACE * n doubles, so that every rule's
    buffer has one size: freed buffers of differing sizes raised peak RSS."""
    doubles, bools = _regions(rows, n, k, planes)
    ends = np.cumsum(doubles)
    per = k * rows
    need = int(ends[-1]) + -(-bools * per // 8)
    buf = getattr(_local, "buf", None)
    if buf is None or buf.size < need:
        buf = _local.buf = np.empty(max(need, _WORKSPACE * n))
    u, links, *parts, flat = np.split(buf[:need], ends)
    held = [p[: k * n * rows].reshape(k, n, rows) for p in parts[:planes]]
    top, second = (p.reshape(k, rows) for p in parts[planes:])
    if planes:
        x, tmp, pos = parts[planes - 1][: 3 * per].reshape(3, k, rows)
        idx, pos = second.view(np.intp), pos.view(np.intp)
    else:
        x, tmp, idx, pos = second, None, None, None
    *checks, flags = flat.view(np.bool_)[: bools * per].reshape(bools, k, rows)
    run, ne = checks or (None, None)
    return _Views(
        u.reshape(rows, n, 3), links.reshape(3, n, rows), *(held + [None] * (2 - planes)),
        top, x, tmp, idx, pos, run, ne, flags,
    )


def _score(curve: _Curve, ws: _Views, flags: np.ndarray) -> np.ndarray:
    """Every config's outage flags on the chunk's trials in ws.links,
    written to flags (configs, rows)."""
    kind, top, x = curve.scheme.kind, ws.top, ws.x
    if curve.picks is not None:

        def chosen(link: int, out: np.ndarray) -> np.ndarray:
            """The fixed pick's SNR on one link, (configs, rows), in out;
            numpy would buffer out under the default mode="raise"."""
            np.take(ws.links[link], curve.picks, axis=0, out=out, mode="wrap")
            return np.divide(out, curve.picked_rates[link], out=out)

        main = np.minimum(chosen(0, x), chosen(1, top), out=x)
        main += 1.0
        eve = chosen(2, top)
    else:
        tmp, idx, pos = ws.tmp, ws.idx, ws.pos
        metric = _metric(curve.scheme, ws.links, curve.neg_rates, curve.eve_weights, ws.a, ws.b)
        _first_max(metric, top, idx, ws.run, ws.ne)
        # Flat positions of the chosen relay in one link's ln(U) and rates.
        rows = ws.links.shape[2]
        np.multiply(idx, rows, out=pos)
        pos += curve.trial_offsets[:rows]
        idx += curve.config_offsets
        flat_links, flat_rates = ws.links.reshape(3, -1), curve.neg_rates.reshape(3, -1)

        def chosen(link: int, out: np.ndarray) -> np.ndarray:
            """The chosen relay's SNR on one link, (configs, rows), in out."""
            np.take(flat_links[link], pos, out=out, mode="wrap")
            np.take(flat_rates[link], idx, out=tmp, mode="wrap")
            return np.divide(out, tmp, out=out)

        if kind in ("OS", "SS-RE"):
            eve = chosen(2, top)
            # Plane a still holds the main SNR, plus one for OS; pos moves
            # from one link's (n, rows) ln(U) to a's (configs, n, rows).
            pos += curve.config_offsets * rows
            main = np.take(ws.a.reshape(-1), pos, out=x, mode="wrap")
            if kind == "SS-RE":
                main += 1.0
        else:
            # TS's maximum is the chosen main SNR, and SS-RD/SS-SR's is one hop of it.
            if kind == "SS-RD":
                np.minimum(chosen(0, x), top, out=top)
            elif kind == "SS-SR":
                np.minimum(top, chosen(1, x), out=top)
            main = top
            main += 1.0
            eve = chosen(2, x)
    eve += 1.0
    eve *= curve.rho
    # C_S < R_s  <=>  (1 + main) < rho * (1 + eve) for rho > 1; the
    # comparison stays correct when the secrecy rate clips to zero.
    return np.less(main, eve, out=flags)


def _block_outages(
    curve: _Curve, seed: int, block_index: int, size: int, out: np.ndarray | None
) -> np.ndarray:
    """Each config's outage count over block `block_index`'s `size` trials,
    drawn and scored a chunk at a time; with `out`, the one config's flags
    are also written there."""
    rows = min(curve.rows, size)
    ws = _workspace(rows, curve.n, curve.k, curve.planes)
    rng = block_generator(seed, block_index)
    counts = np.zeros(curve.k, dtype=np.int64)
    # Near rate_rs 512, rho * (1 + eve) overflows to inf, the limit the
    # outage test needs.  numpy's error state is per thread, so it is set here.
    with np.errstate(over="ignore"):
        for first in range(0, size, rows):
            r = min(rows, size - first)
            if r < rows:
                # Only the last chunk is short: views of its length keep every
                # array contiguous.
                ws = _workspace(r, curve.n, curve.k, curve.planes)
            u = _uniforms(rng, ws.u)
            # In place first: a transposing log would read u without SIMD.
            np.copyto(ws.links, np.log(u, out=u).transpose(2, 1, 0))
            dest = ws.flags if out is None else out[None, first : first + r]
            counts += np.count_nonzero(_score(curve, ws, dest), axis=1)
    return counts


def _cores() -> int:
    """Cores this process may run on (all of them without an affinity query)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor():
    """A pool for one call's blocks, one worker per available core."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(_cores(), thread_name_prefix="relaysec-mc")


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
    curve = _Curve(scheme, cfgs, min(trials, BLOCK_SIZE))

    def block(b: int) -> np.ndarray:
        lo, hi = b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, trials)
        return _block_outages(curve, seed, b, hi - lo, None if flags is None else flags[lo:hi])

    n_blocks = -(-trials // BLOCK_SIZE)
    if n_blocks == 1:
        return trials, seed, block(0), flags
    # A few blocks per core are in flight at once, so a call of any length
    # holds a bounded number of futures; counts are summed in block order.
    outages = np.zeros(len(cfgs), dtype=np.int64)
    window, pending = 4 * _cores(), deque()
    with _executor() as pool:
        for b in range(n_blocks):
            if len(pending) == window:
                outages += pending.popleft().result()
            pending.append(pool.submit(block, b))
        for future in pending:
            outages += future.result()
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
