"""The benchmark's traced run replaces relaysec functions by module and name
(`perfbench/tracing.py`'s HOOKS) and fails when a target is gone or never
fires.  These tests read that list, change nothing under perfbench/, and
fail first when a library change would break a traced run."""

import importlib
import sys
from pathlib import Path

import pytest

from relaysec import TS, RelayLinkParams, SystemConfig, closedform, outage_for_scheme

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
