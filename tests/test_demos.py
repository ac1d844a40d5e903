"""Smoke test: every demo runs to the end. Demos 01-03 write nothing to their
working directory; 04 and 05 write their curves to out/ beside the script."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import bumplab

DEMOS = Path(__file__).parents[1] / "demos"


def _run(script, cwd):
    env = dict(os.environ, PYTHONPATH=str(Path(bumplab.__file__).parents[1]))
    # as Tier-1 does in-process (pyproject's filterwarnings does not reach a child)
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(script)],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("script", ["01_orlicz_and_bmo.py", "02_weight_constants.py",
                                    "03_hilbert_operators.py"])
def test_demo_runs(script, tmp_path):
    _run(DEMOS / script, tmp_path)
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("script, outputs", [
    ("04_commutator_compactness.py", ("kr_tail.csv", "kr_modulus.csv")),
    ("05_spectral_contrast.py", ("sigma_smooth.csv", "sigma_spike.csv")),
])
def test_demo_writes_its_curves(script, outputs, tmp_path):
    # run a copy, so that out/ lands in tmp_path and not in the repository
    _run(shutil.copy(DEMOS / script, tmp_path), tmp_path)
    assert sorted(f.name for f in (tmp_path / "out").iterdir()) == sorted(outputs)
