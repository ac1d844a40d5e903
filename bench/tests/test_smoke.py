"""Smoke test of the benchmark itself, on 64-cell grids.

    python3 -m pytest bench/tests -q

Records a tiny reference from the current code, runs every workload once
untraced and once traced, and checks that every metric BENCHMARK.json names
is emitted with its unit. Also checks that a reference value off by one part
in a million counts as a failed command, and that the benchmark refuses to
run without the bumplab sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _run_tiny(workload: str, trace: int, reference_dir: Path, results_dir: Path) -> dict:
    proc = _bench("--workload", workload, "--seed", str(SEED), "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny",
                  "--reference-dir", str(reference_dir), "--results-dir", str(results_dir))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("reference")
    subprocess.run([sys.executable, "bench/make_reference.py", "--size", "tiny",
                    "--out-dir", str(out)], cwd=ROOT, check=True, capture_output=True)
    return out


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace, tiny_reference, tmp_path):
    result = _run_tiny(workload, trace, tiny_reference, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in expected}

    record = json.loads((tmp_path / f"{workload}-seed{SEED}-trace{trace}.json").read_text())
    env = record["environment"]
    for key in ("nproc", "python", "numpy", "scipy", "blas", "env", "max_workers",
                "git_commit"):
        assert key in env
    assert "BUMPLAB_THREADS" in env["env"] and "OPENBLAS_NUM_THREADS" in env["env"]


def test_perturbed_reference_counts_as_failure(tiny_reference, tmp_path):
    reference_dir = tmp_path / "reference"
    shutil.copytree(tiny_reference, reference_dir)
    report = reference_dir / "spectral" / f"v{SEED % 4}" / "c0" / "probe_svd.json"
    data = json.loads(report.read_text())
    data["result"]["singular_values"][0] *= 1 + 1e-6  # sigma_1
    report.write_text(json.dumps(data))

    result = _run_tiny("spectral", 0, reference_dir, tmp_path / "results")
    assert not result["correct"]
    assert result["failed"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                  "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
