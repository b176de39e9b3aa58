"""relaysec benchmark: run one workload on one seed and print its metrics.

    python3 perfbench/run.py --workload fig5-mc --seed 1 --seconds 50 --trace 0

Run from anywhere inside a checkout; relaysec is imported from the
checkout's src/.  The workload runs in its own fresh interpreter
(worker.py), which repeats whole rounds for about --seconds and checks every
output.  Set-up time is the median over that interpreter and SETUP_PROBES
more that only import relaysec and build the inputs.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of a traced run.  The
last line of standard output is one JSON object: correct, attempted, failed
and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import SELF_TIMES
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBES = 6
# Every run must end within 180 s; the worker is stopped well before that.
WORKER_TIMEOUT_S = 150.0
PROBE_TIMEOUT_S = 30.0

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("call_ms_p50", "ms"),
    ("call_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
)


class RunError(RuntimeError):
    pass


def spawn(args: list[str], timeout: float) -> tuple[dict, float]:
    """Run worker.py in a fresh interpreter; returns its result and the time
    from just before the spawn until the worker reported its inputs ready."""
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker did not finish within {timeout:g} s") from exc
    if proc.returncode != 0:
        raise RunError(proc.stderr.strip() or f"worker exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    # time.monotonic is one system-wide clock, so the two readings compare.
    return result, result["ready"] - started


def layer_unit(name: str) -> str:
    if ".trials_per_s." in name:
        return "trials/s"
    if name.endswith("_share"):
        return "ratio"
    if name.endswith("_s") or "_s." in name:
        return "s"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="relaysec benchmark, one workload")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "relaysec" / "__init__.py").is_file():
        print(f"error: no relaysec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setup = [spawn(common + ["--setup-only"], PROBE_TIMEOUT_S)[1]
                 for _ in range(SETUP_PROBES)]
        result, ready = spawn(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            WORKER_TIMEOUT_S,
        )
    except (RunError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(ready)

    rounds = result["rounds"]
    attempted = result["ops_per_round"] * rounds
    failed = result["failed_per_round"] * rounds
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {rounds} rounds, "
          f"{attempted} operations, {failed} failed, "
          f"{'correct' if result['correct'] else 'INCORRECT'}")
    for note in result["notes"]:
        print(f"  {note}")
    print(f"  untraced round walls after the warm-up (s): {result['round_walls']}")
    if args.trace:
        metrics = {name: {"value": value, "unit": layer_unit(name)}
                   for name, value in result["layers"].items()}
        samples = {name: f"mean of {result['traced_rounds']} traced rounds" for name in metrics}
        layers = result["layers"]
        share = sum(layers[name] for name in SELF_TIMES) / layers["trace.wall_s"]
        print(f"  layer self times add up to {share:.6f} of trace.wall_s")
    else:
        values = dict(result, setup_s=statistics.median(setup))
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        samples = {
            "setup_s": f"median of {len(setup)} fresh interpreters",
            "wall_s": f"median of {result['timed_rounds']} timed rounds",
            "call_ms_p50": f"{result['call_samples']} operations",
            "call_ms_p90": f"{result['call_samples']} operations",
            "peak_rss_mb": "worker process",
        }
        if result["mc_trials_per_s"]:
            print(f"  mc_trials_per_s {result['mc_trials_per_s']:.6g} trials/s "
                  "(simulated trials per round / wall_s)")
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']:<9} {samples[name]}")
    print(json.dumps({
        "correct": bool(result["correct"]),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
