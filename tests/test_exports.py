import importlib
import pkgutil

import pytest

import ppcf

MODULES = ["ppcf"] + [f"ppcf.{m.name}"
                      for m in pkgutil.iter_modules(ppcf.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ())
               if not hasattr(mod, n)]
    assert missing == []
