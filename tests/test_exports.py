"""Every name a ``kdvfreq`` module lists in ``__all__`` resolves, so that no
deletion leaves a stale export behind."""
import importlib
import pkgutil

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
