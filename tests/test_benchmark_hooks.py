"""The benchmark's traced run replaces relaysec functions by module and name
(`perfbench/tracing.py`'s HOOKS) and fails when a target is gone or never
fires.  These tests read that list, change nothing under perfbench/, and
fail first when a library change would break a traced run."""

import importlib
import sys
from pathlib import Path

import pytest

from relaysec import (
    ALL_SCHEMES,
    TS,
    RelayLinkParams,
    SelectionScheme,
    SweepSpec,
    SystemConfig,
    closedform,
    outage_for_scheme,
    run_sweep,
    sweep,
)
from relaysec.sweep import render_csv

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's `tracing` and `workloads` modules, unloaded afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    yield importlib.import_module("tracing"), importlib.import_module("workloads")
    for name in set(sys.modules) - before:
        if Path(getattr(sys.modules[name], "__file__", None) or "").parent == PERFBENCH:
            del sys.modules[name]


def test_every_hook_target_exists(perfbench):
    tracing, _ = perfbench
    for module, attr, _span in tracing.HOOKS:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_closed_form_hooks_fire_on_a_four_relay_cell(perfbench, monkeypatch):
    tracing, workloads = perfbench
    targets = {attr for module, attr, _span in tracing.HOOKS if module == "relaysec.closedform"}
    fired = set()
    for attr in targets:
        def counted(*args, _attr=attr, _original=getattr(closedform, attr), **kwargs):
            fired.add(_attr)
            return _original(*args, **kwargs)

        monkeypatch.setattr(closedform, attr, counted)
    relays = tuple(RelayLinkParams.from_mean_snr_db(10.0, 10.0, eve_db)
                   for eve_db in workloads.eve_levels_db(4))
    outage_for_scheme(SystemConfig(relays, 0.5), TS)
    assert fired == targets


def test_sweep_and_simulator_hooks_fire_on_a_simulated_sweep(perfbench, monkeypatch):
    tracing, _ = perfbench
    hooked = [(module, attr) for module, attr, _span in tracing.HOOKS
              if module in ("relaysec.sweep", "relaysec.montecarlo")]
    fired, mc_args = set(), []
    for module, attr in hooked:
        def counted(*args, _key=(module, attr),
                    _original=getattr(importlib.import_module(module), attr), **kwargs):
            fired.add(_key)
            if _key == ("relaysec.sweep", "simulate_outage"):
                mc_args.append(args)
            return _original(*args, **kwargs)

        monkeypatch.setattr(importlib.import_module(module), attr, counted)
    spec = SweepSpec(snr_grid_db=(0.0, 10.0), rates=(0.5,), schemes=ALL_SCHEMES,
                     n_relays=2, eaves_snr_db=(0.0, 3.0), mc_trials=500, seed=1)
    rows = run_sweep(spec)
    assert hooked and set(hooked) == fired
    assert all(row.p_mc is not None for row in rows)
    # The tracer reads scheme.label and int(trials) from the positional
    # arguments of every sweep.simulate_outage call.
    assert mc_args
    for args in mc_args:
        assert isinstance(args[1], SelectionScheme)
        assert type(args[2]) is int


@pytest.mark.parametrize("trials", [0, 500], ids=["closed-form", "simulated"])
def test_cell_clock_times_one_sweep_row_per_csv_row(perfbench, monkeypatch, trials):
    # The untraced latency metrics come from `perfbench/worker.py`'s CellClock,
    # which replaces sweep.SweepRow and times the gaps between constructions.
    worker = importlib.import_module("worker")
    monkeypatch.setattr(sweep, "SweepRow", sweep.SweepRow)  # restored afterwards
    clock = worker.CellClock(sweep)
    clock.start()
    spec = SweepSpec(snr_grid_db=(0.0, 10.0, 20.0), rates=(0.5, 1.0), schemes=ALL_SCHEMES,
                     n_relays=2, eaves_snr_db=(0.0, 3.0), mc_trials=trials, seed=1)
    csv_rows = render_csv(run_sweep(spec)).splitlines()[1:]
    assert len(clock.latencies) == len(csv_rows) == 6 * 2 * 3
