import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import ppcf
from ppcf import corpus

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


CLI_NUMPY_PROBE = """
import contextlib, io, json, sys
from ppcf import cli
seen = [sorted({"numpy", "scipy"} & set(sys.modules))]
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["--quiet", *argv])
    assert rc == 0, (argv, rc)
    seen.append(sorted({"numpy", "scipy"} & set(sys.modules)))
print(json.dumps(seen))
"""


def test_cli_loads_numpy_only_for_cone_suites():
    # only check lipschitz|chain|distance compute with numpy; every other
    # command, the observational distance included, runs without it
    def f(name):
        return os.path.join(corpus.__path__[0], name + ".ppcf")

    numpy_free = [
        ["translate", f("letpair"), "--mode", "strip"],
        ["eval", f("mq075"), "--max-choices", "6"],
        ["eval", f("dice010"), "--samples", "5", "--seed", "1"],
        ["denot", f("geo")],
        ["dist", f("dice000"), f("dice010")],
        ["check", "tamed", "--p", "0.5"],
    ]
    argv = numpy_free + [["check", "chain", "--trials", "1"]]
    src = os.path.dirname(os.path.dirname(ppcf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, "-c", CLI_NUMPY_PROBE,
                        json.dumps(argv)],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    seen = json.loads(r.stdout)
    # after the import and after each numpy-free command: nothing loaded
    assert seen[:-1] == [[]] * (1 + len(numpy_free))
    # so that the test cannot pass vacuously, the cone suite loads numpy
    assert "numpy" in seen[-1]
