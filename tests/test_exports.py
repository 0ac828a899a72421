import importlib
import os
import pkgutil
import subprocess
import sys

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


def test_import_leaves_numpy_scipy_and_fixpoints_out():
    # the semantics and the machine load through ppcf/__init__; numpy
    # there would cost every denotation and Monte Carlo process its
    # import time and memory, and so would compiling the fixpoint
    # solvers, which semantics loads on a program's first fix
    code = ("import sys, ppcf; print(sorted("
            "{'numpy', 'scipy', 'ppcf.fixpoints'} & set(sys.modules)))")
    src = os.path.dirname(os.path.dirname(ppcf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env, timeout=60)
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"
