"""Every name a ``kdvfreq`` module lists in ``__all__`` resolves, so that no
deletion leaves a stale export behind, and the package resolves its exports
and submodules on first access."""
import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import kdvfreq

MODULES = sorted(m.name for m in pkgutil.iter_modules(kdvfreq.__path__))


def test_modules_found():
    assert {"hill", "roots", "invariants", "pde", "cli"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(f"kdvfreq.{name}")
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, missing
    namespace = {}
    exec(f"from kdvfreq.{name} import *", namespace)
    assert set(getattr(mod, "__all__", ())) <= set(namespace)


# ---------------------------------------------------------------------------
# the package's lazy exports

def test_package_exports_are_the_defining_modules_objects():
    for name in kdvfreq.__all__:
        obj = getattr(kdvfreq, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from kdvfreq import *", namespace)
    assert set(kdvfreq.__all__) <= set(namespace)
    assert set(kdvfreq.__all__) <= set(dir(kdvfreq))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        kdvfreq.no_such_name


def run_fresh(code: str) -> None:
    """Run `code` in a fresh interpreter that finds this kdvfreq and perfbench."""
    root = Path(kdvfreq.__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(root / "perfbench"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("name", MODULES)
def test_submodule_resolves_without_an_import(name):
    run_fresh(f"import importlib, kdvfreq\n"
              f"assert kdvfreq.{name} is importlib.import_module('kdvfreq.{name}')\n")


def test_tracer_wraps_the_package_export():
    # perfbench's traced counts see the calls that go through the package name
    run_fresh("import kdvfreq, tracer\n"
              "rec = tracer.install()\n"
              "report = kdvfreq.frequency_report\n"
              "assert report is kdvfreq.invariants.frequency_report\n"
              "assert report.__wrapped__.__module__ == 'kdvfreq.invariants'\n"
              "report(kdvfreq.single_mode(1, 0.05), 2)\n"
              "assert [s['name'] for s in rec.spans].count('invariants.report') == 1\n")
