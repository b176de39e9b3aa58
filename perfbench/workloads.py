"""Input make-up of the benchmark workloads, as plain numbers.

Kept free of relaysec imports so the oracle can be computed from the same
definitions without touching the program under test.
"""

from __future__ import annotations

WORKLOADS = ("fig5-mc", "closedform-highsnr")

SCHEMES = ("OS", "TS", "SS-RE", "SS-RD", "SS-SR", "PS")
# Schemes whose closed form is an alternating subset sum, checked against the
# product-form quadrature oracle.
ORACLE_SCHEMES = ("TS", "SS-RE", "SS-RD", "SS-SR")

# fig5-mc: the published preset, run through the CLI as a user would.  The
# preset's make-up is restated here so the checks do not trust the program
# for it: 4 relays at 0/3/6/9 dB, rate 0.1 with split 0.3 and rate 1.0 with
# split 0.7, 0-60 dB in 5 dB steps, all six schemes.
FIG5_TRIALS = 100_000
FIG5_N = 4
FIG5_EVE_DB = (0.0, 3.0, 6.0, 9.0)
FIG5_SPLITS = {0.1: 0.3, 1.0: 0.7}

# closedform-highsnr: closed forms only, up to 80 dB and 10 relays.
HIGHSNR_GRID_DB = tuple(float(x) for x in range(0, 81, 10))
HIGHSNR_FAMILIES = (
    # (n_relays, rates, per-rate source-relay power split)
    (4, (0.5, 2.0), (0.3, 0.7)),
    (8, (0.5, 2.0), (0.3, 0.7)),
    (10, (0.5,), (0.3,)),
)


def eve_levels_db(n: int) -> tuple[float, ...]:
    """Per-relay eavesdropper mean SNRs spread evenly over 0-9 dB."""
    return tuple(9.0 * i / (n - 1) for i in range(n))


def highsnr_cells() -> list[dict]:
    """Every (N, rate, split, SNR) point of closedform-highsnr; each carries
    all six schemes, so the workload has 6 * len(...) operations."""
    cells = []
    for n, rates, splits in HIGHSNR_FAMILIES:
        for rate, split in zip(rates, splits):
            for snr in HIGHSNR_GRID_DB:
                cells.append(
                    {"n": n, "rate": rate, "split": split, "snr_db": snr,
                     "eve_db": list(eve_levels_db(n))}
                )
    return cells
