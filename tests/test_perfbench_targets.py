"""The benchmark's traced runs wrap program functions by name.

``perfbench``'s ``--trace 1`` runs replace ``owner.__dict__[attr]`` with a
timing wrapper for every target its workloads' ``_span_targets()`` list,
so renaming or removing one of those attributes breaks the traced run.
This check finds such a break without running the benchmark.
"""

from __future__ import annotations

import importlib
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def import_perfbench(monkeypatch):
    """``importlib.import_module`` with ``perfbench/`` on ``sys.path``.

    The benchmark's modules (``harness``, ``tracing``, ...) are dropped
    from ``sys.modules`` afterwards, so their names leak into no other
    test.
    """
    monkeypatch.syspath_prepend(str(PERFBENCH))
    yield importlib.import_module
    for name, module in list(sys.modules.items()):
        path = getattr(module, "__file__", None) or ""
        if pathlib.Path(path).parent == PERFBENCH:
            del sys.modules[name]


@pytest.mark.parametrize("workload", ["wl_sweep", "wl_serve", "wl_noc"])
def test_span_targets_exist(workload, import_perfbench):
    out = PERFBENCH.parent / ".bench_out"
    before = sorted(out.rglob("*")) if out.exists() else None
    targets = import_perfbench(workload)._span_targets()
    assert targets
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in targets
        if attr not in owner.__dict__
    ]
    assert not missing, f"{workload} wraps names that are gone: {missing}"
    assert (sorted(out.rglob("*")) if out.exists() else None) == before
