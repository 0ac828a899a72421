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
    # numpy would cost every denotation and Monte Carlo process its
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


MODULES_PROBE = """
import contextlib, io, json, sys
had_dataclasses = "dataclasses" in sys.modules
import ppcf
after_import = sorted(m for m in sys.modules if m.startswith("ppcf."))
from ppcf import cli
after_cli = sorted(m for m in sys.modules if m.startswith("ppcf."))
with contextlib.redirect_stdout(io.StringIO()):
    rc = cli.main(["--quiet", *json.loads(sys.argv[1])])
print(json.dumps({"rc": rc, "after_import": after_import,
                  "after_cli": after_cli,
                  "had_dataclasses": had_dataclasses,
                  "loaded": sorted(sys.modules)}))
"""


def _f(name):
    return os.path.join(corpus.__path__[0], name + ".ppcf")


@pytest.mark.parametrize("argv, absent", [
    (["eval", _f("letpair")], ["ppcf.semantics", "ppcf.fixpoints"]),
    (["eval", _f("mq075"), "--samples", "5"],
     ["ppcf.semantics", "ppcf.fixpoints"]),
    (["translate", _f("letpair"), "--mode", "spy"],
     ["ppcf.machine", "ppcf.semantics"]),
    (["denot", _f("geo")], ["ppcf.machine", "ppcf.translate"]),
    (["expect", _f("mq075_marked"), "--label", "t"], ["ppcf.machine"]),
    (["dist", _f("dice000"), _f("dice010")], ["ppcf.machine"]),
    (["check", "tamed"], ["ppcf.machine"]),
    (["check", "adequacy", "--trials", "2"], ["numpy"]),
    (["check", "chain", "--trials", "1"], ["ppcf.machine"]),
], ids=["eval", "eval-samples", "translate", "denot", "expect", "dist",
        "tamed", "adequacy", "chain"])
def test_each_command_loads_only_what_it_runs(argv, absent):
    # a fresh interpreter per command: import ppcf resolves its exports
    # lazily, and cli imports what a subcommand runs inside it
    src = os.path.dirname(os.path.dirname(ppcf.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, "-c", MODULES_PROBE,
                        json.dumps(argv)],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    out = json.loads(r.stdout)
    assert out["rc"] == 0
    assert out["after_import"] == []
    assert out["after_cli"] == ["ppcf.cli", "ppcf.syntax"]
    loaded = set(out["loaded"])
    assert loaded & set(absent) == set()
    if not out["had_dataclasses"]:
        assert "dataclasses" not in loaded
