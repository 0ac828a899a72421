"""Every demo runs to completion in a fresh process."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ppcf

DEMOS = sorted((Path(__file__).parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    # from a temporary directory, so files a demo writes land there
    src = str(Path(ppcf.__file__).parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    r = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                       capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr[-2000:]
