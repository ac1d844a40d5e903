"""What "deterministic" means for the reports, across BLAS thread counts.

A report is byte-identical on rerun with the same numpy, BLAS build and BLAS
thread count. A spectrum's QRs and SVD run on one OpenBLAS thread when their
matrix has at most compactness._ONE_THREAD_COLS columns, so at the
benchmark's size (m = 1024), where every such call is that narrow, `probe
svd` and `compare` write byte-identical files at any thread count. Above the
cap a spectrum's LAPACK calls may round differently across thread counts, so
the spectral values agree to SIGMA_TOL * sigma_1 (the ratios and energy
shares, which are normalised by sigma_1 and by the total energy, to
2 * SIGMA_TOL), and everything else is byte-identical: the rest of a
spectral report, and every report and CSV of a command that calls no LAPACK.

Each command runs in a fresh process, with OPENBLAS_NUM_THREADS set to 1 and
then to 2, on the benchmark's first variant: `probe svd` and `compare` at
m = 1024, `probe svd` at m = 4096, `compare` at m = 2048, `probe kr` at
m = 2048 and `bump --v M5:u` at m = 4096. Each run has its own working
directory and the same relative --out, because reports embed --out.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bumplab
from test_spectrum import SIGMA_TOL

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT))
from bench import workloads  # noqa: E402

_SPECTRAL_KEYS = ("singular_values", "sigma_ratios", "energy_tails")


def _bench_argv(workload: str, index: int, m: int) -> list[str]:
    argv = list(workloads.commands(workload, 0)[index].argv)
    argv[argv.index("--m") + 1] = str(m)
    return argv


def _run(rundir: Path, argv: list[str], threads: int) -> dict[str, bytes]:
    """The files the command writes under rundir/out, by name."""
    rundir.mkdir(parents=True)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads),
               PYTHONPATH=str(Path(bumplab.__file__).parents[1]))
    subprocess.run([sys.executable, "-m", "bumplab.cli", *argv, "--out", "out"], cwd=rundir,
                   env=env, check=True, capture_output=True, timeout=300)
    return {p.name: p.read_bytes() for p in sorted((rundir / "out").iterdir())}


def _runs(tmp_path: Path, argv: list[str]) -> tuple[dict, dict]:
    return tuple(_run(tmp_path / f"threads{n}", argv, n) for n in (1, 2))


def _assert_spectra_agree(one: dict, two: dict) -> None:
    """Two spectral reports: values to the tolerance, every other key equal."""
    sigma_1 = one["singular_values"][0]
    for key, tol in zip(_SPECTRAL_KEYS, (SIGMA_TOL * sigma_1, 2 * SIGMA_TOL, 2 * SIGMA_TOL)):
        assert np.max(np.abs(np.subtract(one.pop(key), two.pop(key)))) <= tol, key
    assert one == two


def _assert_sigma_csvs_agree(one: bytes, two: bytes) -> None:
    a, b = (np.loadtxt(text.decode().splitlines(), delimiter=",", skiprows=1)
            for text in (one, two))
    assert np.array_equal(a[:, 0], b[:, 0])
    assert np.max(np.abs(a[:, 1] - b[:, 1])) <= SIGMA_TOL * a[0, 1]


def test_probe_svd_agrees_across_blas_thread_counts(tmp_path):
    one, two = _runs(tmp_path, _bench_argv("spectral", 0, 4096))
    assert one.keys() == two.keys() == {"probe_svd.json", "probe_svd_sigma.csv"}
    reports = [json.loads(files["probe_svd.json"]) for files in (one, two)]
    _assert_spectra_agree(reports[0].pop("result"), reports[1].pop("result"))
    assert reports[0] == reports[1]  # kind and config
    _assert_sigma_csvs_agree(one["probe_svd_sigma.csv"], two["probe_svd_sigma.csv"])


def test_compare_agrees_across_blas_thread_counts(tmp_path):
    one, two = _runs(tmp_path, _bench_argv("spectral", 1, 2048))
    names = {"compare.json", "compare_sigma_smooth.csv", "compare_sigma_spike.csv"}
    assert one.keys() == two.keys() == names
    reports = [json.loads(files["compare.json"]) for files in (one, two)]
    results = [report.pop("result") for report in reports]
    assert reports[0] == reports[1]  # kind and config
    for tag in ("smooth", "spike"):
        _assert_spectra_agree(results[0].pop(tag), results[1].pop(tag))
        _assert_sigma_csvs_agree(one[f"compare_sigma_{tag}.csv"],
                                 two[f"compare_sigma_{tag}.csv"])
    assert results[0] == results[1]  # K_list and bmo_scale


@pytest.mark.parametrize("argv", [_bench_argv("spectral", 0, 1024),
                                  _bench_argv("spectral", 1, 1024)],
                         ids=["probe-svd", "compare"])
def test_spectral_commands_at_bench_size_are_byte_identical_across_blas_thread_counts(tmp_path,
                                                                                     argv):
    one, two = _runs(tmp_path, argv)
    assert len(one) > 1 and one == two


@pytest.mark.parametrize("argv", [_bench_argv("kr", 4, 2048), _bench_argv("weights", 1, 4096)],
                         ids=["probe-kr", "bump-M5u"])
def test_commands_without_lapack_are_byte_identical_across_blas_thread_counts(tmp_path, argv):
    one, two = _runs(tmp_path, argv)
    assert one and one == two
