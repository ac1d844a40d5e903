"""The spectral benchmark's commands against its stored reference outputs.

Runs every variant of the ``spectral`` workload at full size (m = 1024),
in-process, and checks each command's outputs with the benchmark's own
tolerance check (bench/reference.py) against bench/expected, which is only
read. A spectral drift then fails here before it fails the benchmark.
"""

import sys
from pathlib import Path

import pytest

from bumplab.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT))
from bench import reference, workloads  # noqa: E402


@pytest.mark.parametrize("variant", range(workloads.VARIANTS))
def test_spectral_outputs_match_stored_reference(tmp_path, monkeypatch, variant):
    for idx, cmd in enumerate(workloads.commands("spectral", variant)):
        rundir = tmp_path / f"c{idx}"
        rundir.mkdir()
        monkeypatch.chdir(rundir)  # reports record --out, so it must be the same relative path
        assert main([*cmd.argv, "--out", "out"]) == 0
        stored = reference.stored(ROOT / "bench" / "expected", "spectral", variant, idx)
        got = reference.read_outputs(rundir / "out")
        assert reference.compare(got, reference.read_outputs(stored)) == []
