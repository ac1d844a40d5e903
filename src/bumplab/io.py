"""Serialization: grid functions and curves as CSV, reports as JSON.

All writes are atomic (temp file + rename) so a failed probe never leaves a
partial artifact, and all encodings are deterministic: re-running a probe
with the same config must produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from pathlib import Path

import numpy as np

from .compactness import DecayComparison, KRReport, SpectralReport
from .grid import Grid, GridFunction
from .weights import BumpReport

__all__ = [
    "write_grid_function_csv",
    "read_grid_function_csv",
    "write_curve_csv",
    "write_json",
    "bump_report_dict",
    "kr_report_dict",
    "spectral_report_dict",
    "decay_comparison_dict",
]


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_grid_function_csv(f: GridFunction, path: str | Path) -> None:
    """One row per cell: center and value, 17 significant digits."""
    lines = ["x,value"]
    for x, v in zip(f.grid.centers, f.values):
        lines.append(f"{_fmt(x)},{_fmt(v)}")
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


def read_grid_function_csv(path: str | Path) -> GridFunction:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["x", "value"]:
            raise ValueError(f"unexpected CSV header {header}")
        rows = [(float(x), float(v)) for x, v in reader]
    if len(rows) < 4:
        raise ValueError("grid function CSV needs at least 4 cells")
    xs = np.array([r[0] for r in rows])
    vals = np.array([r[1] for r in rows])
    h = xs[1] - xs[0]
    half_width = -(xs[0] - h / 2.0)
    grid = Grid(half_width, len(rows))
    if not np.allclose(grid.centers, xs, rtol=0, atol=1e-9 * h):
        raise ValueError("CSV cell centers are not a uniform bumplab grid")
    return GridFunction(grid, vals)


def write_curve_csv(path: str | Path, header: tuple[str, str],
                    rows: list[tuple[float, float]]) -> None:
    lines = [f"{header[0]},{header[1]}"]
    for a, b in rows:
        lines.append(f"{_fmt(a)},{_fmt(b)}")
    _atomic_write_text(Path(path), "\n".join(lines) + "\n")


def write_json(path: str | Path, obj: dict) -> None:
    _atomic_write_text(Path(path), json.dumps(obj, sort_keys=True, indent=2) + "\n")


def _jsonable(x):
    if isinstance(x, np.ndarray):
        return [float(v) for v in x]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    return x


def bump_report_dict(report: BumpReport, grid: Grid) -> dict:
    a, b = report.argmax_cube.endpoints(grid)
    out = {
        "constant": float(report.constant),
        "argmax": {"a": a, "b": b},
        "family": report.cube_family,
        "preset": report.preset,
        "p": float(report.p),
        "delta": None if report.delta is None else float(report.delta),
    }
    if report.per_cube is not None:
        out["per_cube"] = _jsonable(report.per_cube)
    return out


def kr_report_dict(report: KRReport) -> dict:
    return {
        "bound_sup": float(report.bound_sup),
        "tail_curve": [[float(n), float(v)] for n, v in report.tail_curve],
        "modulus_curve": [[float(h), float(v)] for h, v in report.modulus_curve],
        # NaN (fewer than two positive modulus points) is not JSON: write null
        "slope": float(report.slope) if math.isfinite(report.slope) else None,
    }


def spectral_report_dict(report: SpectralReport) -> dict:
    return {
        "grid_cells": int(report.grid_cells),
        "K_list": [int(k) for k in report.K_list],
        "sigma_ratios": [float(v) for v in report.sigma_ratios],
        "energy_tails": [float(v) for v in report.energy_tails],
        "singular_values": _jsonable(report.singular_values),
    }


def decay_comparison_dict(cmp: DecayComparison) -> dict:
    return {
        "K_list": [int(k) for k in cmp.K_list],
        "bmo_scale": float(cmp.bmo_scale),
        "smooth": spectral_report_dict(cmp.smooth),
        "spike": spectral_report_dict(cmp.spike),
    }
