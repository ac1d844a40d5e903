"""Every benchmark workload's commands against their stored reference outputs.

Runs every variant of the ``weights``, ``kr`` and ``spectral`` workloads at
full size (m = 4096, 2048 and 1024), in-process, and checks each command's
outputs with the benchmark's own tolerance check (bench/reference.py)
against bench/expected, which is only read; a command marked ``exact_zero``
must report ``max_abs`` exactly 0. A drift that the benchmark would refuse
then fails here before it fails the benchmark.
"""

import sys
from pathlib import Path

import pytest

from bumplab.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT))
from bench import reference, workloads  # noqa: E402


def _assert_outputs_match_stored_reference(tmp_path, monkeypatch, workload, variant):
    for idx, cmd in enumerate(workloads.commands(workload, variant)):
        rundir = tmp_path / f"c{idx}"
        rundir.mkdir()
        monkeypatch.chdir(rundir)  # reports record --out, so it must be the same relative path
        assert main([*cmd.argv, "--out", "out"]) == 0
        stored = reference.stored(ROOT / "bench" / "expected", workload, variant, idx)
        got = reference.read_outputs(rundir / "out")
        assert reference.compare(got, reference.read_outputs(stored)) == []
        if cmd.exact_zero:
            assert [float(v) for k, v in got.items() if k.endswith(".result.max_abs")] == [0.0]


@pytest.mark.parametrize("variant", range(workloads.VARIANTS))
def test_spectral_outputs_match_stored_reference(tmp_path, monkeypatch, variant):
    _assert_outputs_match_stored_reference(tmp_path, monkeypatch, "spectral", variant)


@pytest.mark.parametrize("variant", range(workloads.VARIANTS))
@pytest.mark.parametrize("workload", ["weights", "kr"])
def test_outputs_match_stored_reference(tmp_path, monkeypatch, workload, variant):
    _assert_outputs_match_stored_reference(tmp_path, monkeypatch, workload, variant)
