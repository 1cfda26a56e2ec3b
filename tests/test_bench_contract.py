"""The benchmark binds qimet names; a change that drops one must fail here.

``bench/tracing.py`` wraps functions by ``(module, attribute)`` and
``bench/workloads.py`` imports the public API it times.  Both files are read
from this test, never changed by it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load(monkeypatch, name):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves(monkeypatch):
    tracing = _load(monkeypatch, "tracing")
    assert tracing.TARGETS
    for module_name, attr, _ in tracing.TARGETS:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), \
            f"bench/tracing.py traces {module_name}.{attr}, which is gone"


def test_workloads_import_cleanly(monkeypatch):
    workloads = _load(monkeypatch, "workloads")
    assert callable(workloads.build)
