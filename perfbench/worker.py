"""One workload in one fresh interpreter: set up, run whole rounds for the
requested time, check the outputs, print one JSON line.

run.py starts this script; `--setup-only` stops as soon as relaysec is
imported and the inputs are built and reports that instant, which is how the
launcher times set-up.  A round is one complete pass over the workload's
operations, so every round attempts the same operations and fails the same
ones.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import workloads as wl
from tracing import HookError, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


class BenchmarkError(RuntimeError):
    """The benchmark itself cannot produce a trustworthy result."""


def import_relaysec():
    """Import relaysec from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import relaysec
        import relaysec.cli
    except ImportError as exc:
        raise BenchmarkError(f"cannot import relaysec from {SRC}: {exc}") from exc
    where = Path(relaysec.__file__).resolve().parent
    if where != SRC / "relaysec":
        raise BenchmarkError(f"relaysec imported from {where}, not from {SRC}")
    return relaysec


class CellClock:
    """Latency of each sweep cell: the time between consecutive SweepRow
    constructions in relaysec.sweep, the first measured from start().  Costs
    one clock read per cell, so it stays on in untraced runs."""

    def __init__(self, sweep_module) -> None:
        self.latencies: list[float] = []
        self._last = 0.0
        original = sweep_module.SweepRow

        def row(*args, **kwargs):
            made = original(*args, **kwargs)
            now = time.perf_counter()
            self.latencies.append(now - self._last)
            self._last = now
            return made

        sweep_module.SweepRow = row

    def start(self) -> None:
        self._last = time.perf_counter()


def make_api(rs, tracer: Tracer | None) -> dict:
    """The entry points the harness calls, wrapped in spans when traced."""
    api = {
        "main": rs.cli.main,
        "run_sweep": rs.sweep.run_sweep,
        "render_csv": rs.sweep.render_csv,
    }
    if tracer is None:
        return api
    return {
        "main": tracer.wrap("cli.main", api["main"]),
        "run_sweep": tracer.wrap("sweep.run_sweep", api["run_sweep"]),
        "render_csv": tracer.wrap("sweep.render_csv", api["render_csv"]),
    }


class Fig5:
    """relaysec figure fig5 at 1e5 trials per cell, through the CLI."""

    trials_per_op = wl.FIG5_TRIALS

    spans = ("cli.main", "sweep.run_sweep", "sweep.render_csv",
             "closedform.outage_for_scheme", "subsets.signed_sum",
             "montecarlo.simulate_outage", "montecarlo.block_generator",
             "montecarlo.draw", "asymptotics.")

    def __init__(self, rs, seed: int) -> None:
        self.out = OUT_DIR / "fig5-mc" / "fig5.csv"
        self.out.parent.mkdir(parents=True, exist_ok=True)
        self.argv = ["figure", "fig5", "--trials", str(wl.FIG5_TRIALS),
                     "--seed", str(seed), "--out", str(self.out)]

    def round(self, api: dict, clock: CellClock):
        clock.start()
        with contextlib.redirect_stdout(io.StringIO()):
            return api["main"](self.argv)

    def output(self, exit_code) -> tuple[bytes, object]:
        if exit_code != 0:
            raise BenchmarkError(f"relaysec figure fig5 exited with {exit_code}")
        data = self.out.read_bytes()
        return data, data

    def check(self, rs, data: bytes):
        import checks

        rows = checks.parse_csv(data.decode("utf-8"))
        cells = {(wl.FIG5_N, r["scheme"], r["rate_rs"], r["snr_db"]): r["p_closed"] for r in rows}
        expected = {(wl.FIG5_N, s, rate, float(db)) for s in wl.SCHEMES
                    for rate in wl.FIG5_SPLITS for db in range(0, 61, 5)}
        if set(cells) != expected or len(rows) != len(expected):
            return {}, False, [f"fig5 CSV holds {len(rows)} rows, not the preset's {len(expected)}"]
        single = checks.single_outage_fn(lambda n: wl.FIG5_EVE_DB,
                                         lambda n, rate: wl.FIG5_SPLITS[rate])
        fails = checks.sweep_failures(cells, single)
        ok, note = checks.mc_agreement(rows)
        return fails, ok, [note]


class HighSnr:
    """Closed forms only, N = 4/8/10, 0-80 dB, through run_sweep.

    One sweep per (scheme, N, rate) curve, taken scheme by scheme: a whole
    N=4 sweep lasts about 50 ms, so run in one piece its cheap cells, where
    the median cell lies, would all share one stretch of the host's speed.
    """

    trials_per_op = 0

    spans = ("sweep.run_sweep", "sweep.render_csv", "closedform.outage_for_scheme",
             "subsets.signed_sum", "asymptotics.")

    def __init__(self, rs, seed: int) -> None:
        self.specs = [
            rs.SweepSpec(
                snr_grid_db=wl.HIGHSNR_GRID_DB,
                rates=(rate,),
                schemes=(scheme,),
                n_relays=n,
                power_split_sr=split,
                eaves_snr_db=wl.eve_levels_db(n),
                seed=seed,
            )
            for scheme in rs.ALL_SCHEMES
            for n, rates, splits in wl.HIGHSNR_FAMILIES
            for rate, split in zip(rates, splits)
        ]

    def round(self, api: dict, clock: CellClock):
        result = []
        for spec in self.specs:
            clock.start()
            rows = api["run_sweep"](spec)
            result.append((rows, api["render_csv"](rows)))
        return result

    def output(self, result) -> tuple[bytes, object]:
        return "".join(text for _, text in result).encode("utf-8"), result

    def check(self, rs, result):
        import checks
        import oracle

        cells = {(row.n_relays, row.scheme, row.rate_rs, row.snr_db): row.p_closed
                 for rows, _ in result for row in rows}
        splits = {(n, rate): split for n, rates, sp in wl.HIGHSNR_FAMILIES
                  for rate, split in zip(rates, sp)}
        single = checks.single_outage_fn(wl.eve_levels_db, lambda n, rate: splits[(n, rate)])
        fails = checks.sweep_failures(cells, single)
        references = {}
        for cell in wl.highsnr_cells():
            sr, rd, eve, rho = oracle.cell_rates(cell)
            try:
                references[(cell["n"], cell["rate"], cell["snr_db"])] = {
                    s: oracle.scheme_outage(s, sr, rd, eve, rho) for s in wl.ORACLE_SCHEMES
                }
            except oracle.OracleError as exc:
                raise BenchmarkError(f"oracle failed on {cell}: {exc}") from exc
        for key, reasons in checks.oracle_failures(cells, references).items():
            fails.setdefault(key, []).extend(reasons)
        return fails, True, []


WORKLOADS = {"fig5-mc": Fig5, "closedform-highsnr": HighSnr}


def run(args) -> dict:
    rs = import_relaysec()
    workload = WORKLOADS[args.workload](rs, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        return {"ready": ready}

    clock = CellClock(rs.sweep)
    tracer = Tracer() if args.trace else None
    plain_api = make_api(rs, None)
    traced_api = make_api(rs, tracer) if tracer else None
    walls = {False: [], True: []}
    latencies: list[float] = []
    same = True
    started = time.perf_counter()
    # The first round is a warm-up: bytecode specialisation and library
    # caches settle during it, so its times are left out.  Its outputs are
    # the reference every later round must reproduce.
    clock.latencies = []
    first = workload.output(workload.round(plain_api, clock))
    ops = len(clock.latencies)
    rounds = 1
    while True:
        # Traced runs alternate plain and traced rounds, so the overhead of
        # tracing is measured in the same process.
        traced = tracer is not None and len(walls[False]) > len(walls[True])
        clock.latencies = []
        if traced:
            tracer.install()
            t0 = time.perf_counter()
            ret = tracer.call("bench.round", workload.round, traced_api, clock)
            wall = time.perf_counter() - t0
            tracer.uninstall()
        else:
            t0 = time.perf_counter()
            ret = workload.round(plain_api, clock)
            wall = time.perf_counter() - t0
            latencies.extend(clock.latencies)
        walls[traced].append(wall)
        same = same and workload.output(ret)[0] == first[0]
        rounds += 1
        if rounds >= 3 and time.perf_counter() - started + wall > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    fails, ok, notes = workload.check(rs, first[1])
    if not same:
        ok = False
        notes.append("outputs differ between repeats of the same inputs")
    for key in sorted(fails, key=str):
        notes.append(f"failed {key}: {'; '.join(fails[key])}")
    result = {
        "ready": ready,
        "rounds": rounds,
        "ops_per_round": ops,
        "failed_per_round": len(fails),
        "timed_rounds": len(walls[False]),
        "round_walls": [round(w, 4) for w in walls[False]],
        "correct": ok,
        "notes": notes,
    }
    if tracer is None:
        wall_s = statistics.median(walls[False])
        result.update(
            wall_s=wall_s,
            call_ms_p50=statistics.median(latencies) * 1e3,
            call_ms_p90=statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
            call_samples=len(latencies),
            peak_rss_mb=peak_rss_mb,
            mc_trials_per_s=ops * workload.trials_per_op / wall_s,
        )
        return result
    names = {rec[2] for rec in tracer.spans}
    missing = [s for s in workload.spans
               if not any(n == s or (s.endswith(".") and n.startswith(s)) for n in names)]
    if "subsets.signed_sum" in names and tracer.terms == 0:
        missing.append("subsets.terms")
    if missing:
        raise HookError(f"hooks never fired on {args.workload}: {missing}")
    roots = len(walls[True])
    layers = layer_metrics(tracer, roots, ops * roots)
    layers["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
    OUT_DIR.mkdir(exist_ok=True)
    tracer.dump(OUT_DIR / f"{args.workload}.trace.jsonl")
    result["layers"] = layers
    result["traced_rounds"] = roots
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    try:
        result = run(args)
    except (BenchmarkError, HookError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
