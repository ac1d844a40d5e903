"""Smoke test: the demos that call the sup-over-cubes constants and the maximal
function run to the end and write nothing to their working directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bumplab

DEMOS = Path(__file__).parents[1] / "demos"


@pytest.mark.parametrize("script", ["01_orlicz_and_bmo.py", "02_weight_constants.py",
                                    "03_hilbert_operators.py"])
def test_demo_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(bumplab.__file__).parents[1]))
    proc = subprocess.run([sys.executable, str(DEMOS / script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert not any(tmp_path.iterdir())
