"""The benchmark's tracer wraps package functions by module and name. A name
that no longer resolves is skipped there, and its per-layer metrics drop out
of a traced result, so every hook must still resolve to a callable."""
import importlib
from pathlib import Path


def test_tracer_hooks_resolve_to_package_callables(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    tracer = importlib.import_module("tracer")
    missing = []
    for modname, attr, *_ in tracer._hooks(tracer.Recorder()):
        assert modname.split(".")[0] == "kdvfreq", modname
        if not callable(getattr(importlib.import_module(modname), attr, None)):
            missing.append(f"{modname}.{attr}")
    assert missing == []
