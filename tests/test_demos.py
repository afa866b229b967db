"""Every demo script runs to completion."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo, tmp_path):
    # each demo imports dualmim from src/ and writes only under TMPDIR
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, demo], env=env, cwd=tmp_path,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:]
