"""Checks of the benchmark itself; not part of the package's test suite.

    python3 -m pytest -q perfbench/test_perfbench.py

Every workload's reference checks pass on one untimed pass, at the
default seed and at a second seed, so that a claim made with the
benchmark can be rechecked on inputs it was not tuned on.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import workloads  # noqa: E402
from spans import NULL, Tracer  # noqa: E402


@pytest.mark.parametrize("seed", [workloads.DEFAULT_SEED, 3])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reference_checks_pass(name, seed):
    wl = workloads.WORKLOADS[name](seed, NULL, corpus_seed=seed)
    failures = []
    for label, fn in [wl.warmup()] + wl.ops():
        try:
            fn(NULL)
        except workloads.CheckFailed as e:
            failures.append(str(e))
    assert not failures
    assert not wl.final_check()


def test_self_times_cover_each_op():
    tr = Tracer()
    tr.op = "pass/0"
    with tr.span("op"):
        with tr.span("a.outer"):
            with tr.span("b.inner"):
                sum(range(1000))
        with tr.span("b.inner"):
            pass
    own = tr.self_times()
    assert all(t >= 0 for t in own)
    assert abs(sum(own) - (tr.spans[0][2] - tr.spans[0][1])) < 1e-12
    assert tr.by_name("pass/")["b.inner"][0] == 2
    assert tr.unaccounted() < 1e-12


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"),
         "--workload", "mc-super", "--seconds", "1"],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "correct" not in proc.stdout
