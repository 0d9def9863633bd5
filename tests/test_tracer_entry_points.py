"""The benchmark's tracer (perfbench/tracer.py) times each engine layer
by swapping the module attributes in its ENTRY_POINTS list. A rename or
removal of one of them would drop that span silently, so every entry
must stay a callable module-level name."""

import importlib

import pytest

from perfbench.tracer import ENTRY_POINTS


@pytest.mark.parametrize("module,attr,span", ENTRY_POINTS, ids=[e[2] for e in ENTRY_POINTS])
def test_entry_point_resolves_to_callable(module, attr, span):
    fn = getattr(importlib.import_module(module), attr, None)
    assert callable(fn), f"{module}.{attr} (span {span}) is missing or not callable"
