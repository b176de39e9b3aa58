"""Span tracer for the traced run: wraps relaysec's public functions under the
names the calling modules bind them to, records spans with parent ids in
memory, and derives the per-layer metrics from them.

A span's layer is the part of its name before the first dot.  Self time is a
span's duration minus that of its direct children, so the self times of all
spans in a round, harness included, add up to the round's duration.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from pathlib import Path

from workloads import SCHEMES

# Hook targets: (module, attribute, span name).  The attribute is replaced in
# the module that calls it, so the wrapper sees exactly the calls that module
# makes.  A missing target fails the traced run.  subset_terms is counted per
# term rather than timed, and block_generator returns a timing proxy.
HOOKS = (
    ("relaysec.cli", "run_sweep", "sweep.run_sweep"),
    ("relaysec.cli", "render_csv", "sweep.render_csv"),
    ("relaysec.sweep", "outage_for_scheme", "closedform.outage_for_scheme"),
    ("relaysec.sweep", "simulate_outage", "montecarlo.simulate_outage"),
    ("relaysec.closedform", "subset_terms", None),
    ("relaysec.closedform", "signed_sum", "subsets.signed_sum"),
    ("relaysec.montecarlo", "block_generator", "montecarlo.block_generator"),
)
ASYMP_MODULE = "relaysec.sweep"
ASYMP_PREFIX = "asymp_"

SNR_SPLIT_DB = 30.0
RELAY_COUNTS = (4, 8, 10)

PER_LAYER = (
    ["cli.self_s", "sweep.cells", "sweep.self_s", "sweep.render_csv_s",
     "closedform.calls", "closedform.busy_s", "closedform.self_s",
     "closedform.busy_s.snr_lt30", "closedform.busy_s.snr_ge30"]
    + [f"closedform.busy_s.n{n}" for n in RELAY_COUNTS]
    + [f"closedform.busy_s.{s}" for s in SCHEMES]
    + ["subsets.terms", "subsets.signed_sum_s",
       "montecarlo.calls", "montecarlo.trials", "montecarlo.blocks",
       "montecarlo.busy_s", "montecarlo.draw_s", "montecarlo.draw_share"]
    + [f"montecarlo.trials_per_s.{s}" for s in SCHEMES]
    + ["asymptotics.calls", "asymptotics.busy_s",
       "trace.wall_s", "trace.overhead_s", "trace.unattributed_s"]
)

# Layer self times; with trace.unattributed_s they add up to trace.wall_s.
SELF_TIMES = ("cli.self_s", "sweep.self_s", "sweep.render_csv_s", "closedform.self_s",
              "subsets.signed_sum_s", "montecarlo.busy_s", "asymptotics.busy_s")


class HookError(RuntimeError):
    """A hook target is gone, or a hook the workload needs never fired."""


class Tracer:
    """In-memory span recorder: one list entry per span,
    [id, parent id, name, start, end, attrs]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.terms = 0
        self._saved: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, attrs: dict | None = None, **kwargs):
        sid = len(self.spans)
        rec = [sid, self.stack[-1] if self.stack else -1, name, 0.0, 0.0, attrs]
        self.spans.append(rec)
        self.stack.append(sid)
        rec[3] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[4] = time.perf_counter()
            self.stack.pop()

    def wrap(self, name: str, fn, attrs_of=None):
        def traced(*args, **kwargs):
            attrs = attrs_of(*args, **kwargs) if attrs_of else None
            return self.call(name, fn, *args, attrs=attrs, **kwargs)
        return traced

    def _patch(self, module, attr: str, replacement) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        """Replace every hook target; raises HookError if one is missing."""
        for mod_name, attr, span in HOOKS:
            module = importlib.import_module(mod_name)
            if not hasattr(module, attr):
                raise HookError(f"hook target {mod_name}.{attr} no longer exists")
            original = getattr(module, attr)
            if attr == "subset_terms":
                replacement = self._terms_hook(original)
            elif attr == "block_generator":
                replacement = self._generator_hook(original)
            else:
                replacement = self.wrap(span, original, _ATTRS.get(attr))
            self._patch(module, attr, replacement)
        module = importlib.import_module(ASYMP_MODULE)
        names = [n for n in vars(module) if n.startswith(ASYMP_PREFIX)]
        if not names:
            raise HookError(f"no {ASYMP_MODULE}.{ASYMP_PREFIX}* hook targets")
        for name in names:
            self._patch(module, name, self.wrap(f"asymptotics.{name}", getattr(module, name)))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _terms_hook(self, original):
        def counted(*args, **kwargs):
            for term in original(*args, **kwargs):
                self.terms += 1
                yield term
        return counted

    def _generator_hook(self, original):
        tracer = self

        class GeneratorProxy:
            """Times every method call on the wrapped generator as a draw."""

            __slots__ = ("_gen",)

            def __init__(self, gen) -> None:
                self._gen = gen

            def __getattr__(self, name):
                value = getattr(self._gen, name)
                return tracer.wrap("montecarlo.draw", value) if callable(value) else value

        def hooked(*args, **kwargs):
            gen = self.call("montecarlo.block_generator", original, *args, **kwargs)
            return GeneratorProxy(gen)
        return hooked

    def dump(self, path: Path) -> None:
        keys = ("id", "parent", "name", "start", "end", "attrs")
        path.write_text(
            "\n".join(json.dumps(dict(zip(keys, rec))) for rec in self.spans) + "\n",
            encoding="utf-8",
        )


def _closedform_attrs(cfg, scheme, *args, **kwargs) -> dict:
    relay = cfg.relays[0]
    # Total main-channel mean SNR of the cell, from its hop rates.
    total_db = 10.0 * math.log10(1.0 / relay.sr_rate + 1.0 / relay.rd_rate)
    return {"scheme": scheme.label, "n": cfg.n_relays, "snr_db": total_db}


def _montecarlo_attrs(cfg, scheme, trials, *args, **kwargs) -> dict:
    return {"scheme": scheme.label, "trials": int(trials)}


_ATTRS = {"outage_for_scheme": _closedform_attrs, "simulate_outage": _montecarlo_attrs}


def layer_metrics(tracer: Tracer, rounds: int, cells: int) -> dict[str, float]:
    """Per-layer metrics per traced round, averaged over `rounds` rounds;
    `cells` is the number of sweep cells they computed."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for rec in spans:
        if rec[1] >= 0:
            child_time[rec[1]] += rec[4] - rec[3]
    m = {name: 0.0 for name in PER_LAYER}
    m["subsets.terms"] = float(tracer.terms)
    m["sweep.cells"] = float(cells)
    mc_trials = {s: 0 for s in SCHEMES}
    mc_time = {s: 0.0 for s in SCHEMES}
    wall = 0.0
    for rec in spans:
        _, _, name, t0, t1, attrs = rec
        dur = t1 - t0
        own = dur - child_time[rec[0]]
        layer = name.split(".", 1)[0]
        if name == "bench.round":
            wall += dur
            m["trace.unattributed_s"] += own
        elif layer == "cli":
            m["cli.self_s"] += own
        elif name == "sweep.run_sweep":
            m["sweep.self_s"] += own
        elif name == "sweep.render_csv":
            m["sweep.render_csv_s"] += dur
        elif layer == "closedform":
            m["closedform.calls"] += 1
            m["closedform.busy_s"] += dur
            m["closedform.self_s"] += own
            band = "snr_ge30" if attrs["snr_db"] >= SNR_SPLIT_DB - 0.5 else "snr_lt30"
            m[f"closedform.busy_s.{band}"] += dur
            if attrs["n"] in RELAY_COUNTS:
                m[f"closedform.busy_s.n{attrs['n']}"] += dur
            m[f"closedform.busy_s.{attrs['scheme']}"] += dur
        elif name == "subsets.signed_sum":
            m["subsets.signed_sum_s"] += dur
        elif name == "montecarlo.simulate_outage":
            m["montecarlo.calls"] += 1
            m["montecarlo.trials"] += attrs["trials"]
            m["montecarlo.busy_s"] += dur
            mc_trials[attrs["scheme"]] += attrs["trials"]
            mc_time[attrs["scheme"]] += dur
        elif name == "montecarlo.block_generator":
            m["montecarlo.blocks"] += 1
        elif name == "montecarlo.draw":
            m["montecarlo.draw_s"] += dur
        elif layer == "asymptotics":
            m["asymptotics.calls"] += 1
            m["asymptotics.busy_s"] += dur
    for name in PER_LAYER:
        m[name] /= rounds
    m["trace.wall_s"] = wall / rounds
    if m["montecarlo.busy_s"] > 0.0:
        m["montecarlo.draw_share"] = m["montecarlo.draw_s"] / m["montecarlo.busy_s"]
    for s in SCHEMES:
        if mc_time[s] > 0.0:
            m[f"montecarlo.trials_per_s.{s}"] = mc_trials[s] / mc_time[s]
    return m
