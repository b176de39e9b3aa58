"""Properties every workload's outputs must have.

Nothing here compares against a stored copy of the program's output.  Per
cell, a sweep value must lie in [0, 1], must not rise with SNR along its
curve, must not fall below OS, and PS must equal the smallest single-branch
outage; on closedform-highsnr the subset-sum schemes must also match the
product-form quadrature oracle.  A cell that breaks one of these is a failed
operation; statistical agreement with the simulator is judged over a whole
round instead, because a single cell may stray by chance.
"""

from __future__ import annotations

import csv
import io
from collections import defaultdict

import oracle
from workloads import ORACLE_SCHEMES

# Slack for comparisons that hold exactly in real arithmetic.
ROUND_OFF = 1e-12
# Relative accuracy demanded of the subset-sum schemes against the oracle.
ORACLE_TOL = 1e-9
# fig5-mc: share of simulated cells that must lie within MC_Z stderr.
MC_Z = 3.0
MC_SHARE = 0.95


def parse_csv(text: str) -> list[dict]:
    """Sweep CSV rows with numeric columns as floats (None when empty)."""
    rows = []
    for raw in csv.DictReader(io.StringIO(text)):
        row = {"scheme": raw["scheme"]}
        for key in ("rate_rs", "snr_db", "p_closed", "p_mc", "mc_stderr"):
            row[key] = float(raw[key]) if raw[key] else None
        rows.append(row)
    return rows


def sweep_failures(cells: dict, single_outages) -> dict:
    """Map of failing cell -> reasons.

    `cells` maps (n, scheme, rate, snr) to the program's closed-form value;
    `single_outages(n, rate, snr)` gives every relay's single-branch outage.
    """
    fails: dict = defaultdict(list)
    curves: dict = defaultdict(list)
    for (n, scheme, rate, snr), p in cells.items():
        key = (n, scheme, rate, snr)
        curves[(n, scheme, rate)].append((snr, p))
        if not 0.0 <= p <= 1.0:
            fails[key].append(f"value {p!r} outside [0, 1]")
        p_os = cells[(n, "OS", rate, snr)]
        if p_os > p * (1.0 + ROUND_OFF):
            fails[key].append(f"below OS ({p!r} < {p_os!r})")
        if scheme == "PS":
            ref = min(single_outages(n, rate, snr))
            if abs(p - ref) > ROUND_OFF * ref:
                fails[key].append(f"PS {p!r} is not the best single branch {ref!r}")
    for (n, scheme, rate), points in curves.items():
        points.sort()
        for (_, prev), (snr, p) in zip(points, points[1:]):
            if p > prev * (1.0 + ROUND_OFF):
                fails[(n, scheme, rate, snr)].append(f"rises with SNR ({prev!r} -> {p!r})")
    return fails


def oracle_failures(cells: dict, references: dict) -> dict:
    """Cells of the subset-sum schemes off the oracle by more than ORACLE_TOL;
    `references` maps (n, rate, snr) to {scheme: oracle value}."""
    fails: dict = defaultdict(list)
    for (n, scheme, rate, snr), p in cells.items():
        if scheme not in ORACLE_SCHEMES:
            continue
        ref = references[(n, rate, snr)][scheme]
        rel = abs(p - ref) / ref
        if rel > ORACLE_TOL:
            fails[(n, scheme, rate, snr)].append(
                f"{p!r} vs oracle {ref!r} (relative error {rel:.2e})"
            )
    return fails


def single_outage_fn(eve_db_of, split_of):
    """single_outages(n, rate, snr) from the oracle's 50-digit kernel, for a
    sweep whose relays differ only in eavesdropper level."""

    def single_outages(n, rate, snr):
        cell = {"n": n, "rate": rate, "split": split_of(n, rate), "snr_db": snr,
                "eve_db": list(eve_db_of(n))}
        sr, rd, eve, rho = oracle.cell_rates(cell)
        return [oracle.single_branch(s + r, a, rho) for s, r, a in zip(sr, rd, eve)]

    return single_outages


def mc_agreement(rows: list[dict]) -> tuple[bool, str]:
    """At least MC_SHARE of the cells with a nonzero stderr lie within MC_Z
    stderr of the closed form."""
    zs = [abs(r["p_closed"] - r["p_mc"]) / r["mc_stderr"] for r in rows if r["mc_stderr"]]
    inside = sum(z <= MC_Z for z in zs)
    ok = bool(zs) and inside >= MC_SHARE * len(zs)
    return ok, f"{inside}/{len(zs)} simulated cells within {MC_Z:g} stderr"
