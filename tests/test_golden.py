"""Golden CLI output: every command below must keep its exit code and its
stdout byte for byte.

``tests/golden/cli.json`` maps each command line (``CORPUS`` standing for
the bundled corpus directory) to ``{"exit": code, "stdout": text}``.  To
regenerate it after an intended output change, run from the repository
root::

    PYTHONPATH=src python tests/test_golden.py > tests/golden/cli.json
"""

import contextlib
import io
import json
import os
import sys
from importlib import resources
from pathlib import Path

from ppcf import corpus
from ppcf.cli import main

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
MARKED = {"letpair": ["--rate", "a=1/2", "--rate", "b=2/3"],
          "mq025_marked": ["--rate", "t=1/2"],
          "mq075_marked": ["--rate", "t=9/10", "--seed-labels"]}


def commands() -> list[list[str]]:
    out = []
    for name in corpus.program_names():
        f = f"CORPUS/{name}.ppcf"
        # the mq programs do not finish enumerating at the default budget
        limit = ["--max-choices", "16"] if name.startswith("mq") else []
        out.append(["eval", f, *limit])
        out.append(["denot", f, *MARKED.get(name, [])])
    letpair, mq25m, mq75m = ("CORPUS/letpair.ppcf",
                             "CORPUS/mq025_marked.ppcf",
                             "CORPUS/mq075_marked.ppcf")
    out += [
        ["denot", mq25m],
        ["denot", "CORPUS/geo.ppcf", "--tol", "1e-12", "--nmax", "16"],
        ["translate", letpair, "--mode", "strip"],
        ["translate", mq75m, "--mode", "strip"],
        ["translate", letpair, "--mode", "spy"],
        ["translate", letpair, "--mode", "spy", "--var", "a=pa",
         "--var", "b=pb"],
        ["translate", letpair, "--mode", "spy", "--var", "a=x"],
        ["translate", mq25m, "--mode", "spy"],
        ["translate", letpair, "--mode", "lcof", *MARKED["letpair"]],
        ["translate", mq75m, "--mode", "lcof", "--rate", "t=1/3"],
        ["translate", letpair, "--mode", "lcof"],
        ["expect", mq25m, "--label", "t"],
        ["expect", mq75m, "--label", "t", "--method", "dual"],
        ["expect", mq75m, "--label", "t", "--method", "both",
         "--samples", "200", "--seed", "5"],
        ["expect", letpair, "--label", "b", "--method", "both",
         "--samples", "200", "--seed", "1"],
        ["expect", letpair, "--label", "zz"],
        ["eval", "CORPUS/dice010.ppcf", "--samples", "200", "--seed", "7"],
        ["eval", "CORPUS/geo.ppcf", "--samples", "200", "--seed", "7"],
        ["eval", "CORPUS/mq075.ppcf", "--samples", "200", "--seed", "3"],
        ["eval", letpair, "--samples", "200", "--seed", "2"],
        ["eval", "CORPUS/loop.ppcf", "--samples", "3", "--max-steps", "50"],
        ["eval", letpair, "--choices", "0"],
        ["eval", letpair, "--choices", "10"],
        ["eval", letpair, "--choices", "11"],
        ["eval", "CORPUS/geo.ppcf", "--choices", "1101"],
        ["eval", "CORPUS/mq025.ppcf", "--choices", "1"],
        ["dist", "CORPUS/dice000.ppcf", "CORPUS/dice010.ppcf"],
        ["dist", "CORPUS/geo.ppcf", "CORPUS/zero.ppcf"],
        ["dist", "CORPUS/mq025.ppcf", "CORPUS/mq075_marked.ppcf"],
        ["check", "lipschitz", "--trials", "40", "--p", "0.9",
         "--seed", "3"],
        ["check", "chain", "--trials", "20", "--seed", "3"],
        ["check", "distance", "--trials", "40", "--seed", "3"],
        ["check", "adequacy", "--trials", "3", "--seed", "321"],
        ["check", "tamed", "--p", "0.5"],
        ["check", "tamed", "--p", "0.25", "--contexts",
         "CORPUS/contexts.ctx", "--left", "CORPUS/dice001.ppcf",
         "--right", "CORPUS/dice010.ppcf"],
    ]
    return out


def run(argv: list[str]) -> dict:
    root = str(resources.files(corpus))
    args = [a.replace("CORPUS", root) for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["--quiet", *args])
    return {"exit": rc, "stdout": out.getvalue()}


def test_cli_output_unchanged(monkeypatch):
    # commands without --seed take PPCF_SEED, and the golden file has 0
    monkeypatch.delenv("PPCF_SEED", raising=False)
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    changed = [cmd for cmd, want in sorted(golden.items())
               if run(cmd.split(" ")) != want]
    assert not changed


if __name__ == "__main__":
    os.environ.pop("PPCF_SEED", None)
    table = {" ".join(argv): run(argv) for argv in commands()}
    json.dump(table, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
