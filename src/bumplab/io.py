"""Serialization: grid functions and curves as CSV, reports as JSON.

All writes are atomic (temp file + rename) so a failed probe never leaves a
partial artifact, and all encodings are deterministic: re-running a probe
with the same config must produce byte-identical files.
"""

from __future__ import annotations

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
    "write_curve_csv",
    "write_json",
    "bump_report_dict",
    "kr_report_dict",
    "spectral_report_dict",
    "decay_comparison_dict",
]


_CSV_ROW = "%.17g,%.17g\n"


def _csv_text(header: str, xs: list[float], ys: list[float]) -> str:
    """The header line, then one "x,y" line per pair of floats, 17 significant
    digits each, from one % format over the pairs."""
    pairs = [0.0] * (2 * len(xs))
    pairs[::2] = xs
    pairs[1::2] = ys
    return header + "\n" + (_CSV_ROW * len(xs)) % tuple(pairs)


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
    _atomic_write_text(Path(path), _csv_text("x,value", f.grid.centers.tolist(),
                                             f.values.tolist()))


def write_curve_csv(path: str | Path, header: tuple[str, str],
                    rows: list[tuple[float, float]]) -> None:
    xs, ys = np.array(rows, dtype=float).reshape(len(rows), 2).T.tolist()
    _atomic_write_text(Path(path), _csv_text(f"{header[0]},{header[1]}", xs, ys))


def write_json(path: str | Path, obj: dict) -> None:
    """Raises ValueError, before writing, if obj holds a NaN or an infinity."""
    _atomic_write_text(Path(path), json.dumps(obj, sort_keys=True, indent=2,
                                              allow_nan=False) + "\n")


def bump_report_dict(report: BumpReport, grid: Grid, preset: str, p: float,
                     delta: float | None) -> dict:
    """The constant and its argmax cube, labelled with the caller's preset, p and delta."""
    a, b = report.argmax_cube.endpoints(grid)
    return {
        "constant": float(report.constant),
        "argmax": {"a": a, "b": b},
        "preset": preset,
        "p": float(p),
        "delta": None if delta is None else float(delta),
    }


def kr_report_dict(report: KRReport) -> dict:
    return {
        "bound_sup": float(report.bound_sup),
        "tail_curve": [[float(n), float(v)] for n, v in report.tail_curve],
        "modulus_curve": [[float(h), float(v)] for h, v in report.modulus_curve],
        # NaN (fewer than two positive modulus points) is not JSON: write null
        "slope": float(report.slope) if math.isfinite(report.slope) else None,
    }


def spectral_report_dict(report: SpectralReport, K_list: list[int]) -> dict:
    """The spectrum, labelled with its count (the grid's cells) and the caller's K_list."""
    return {
        "grid_cells": len(report.singular_values),
        "K_list": [int(k) for k in K_list],
        "sigma_ratios": [float(v) for v in report.sigma_ratios],
        "energy_tails": [float(v) for v in report.energy_tails],
        "singular_values": [float(v) for v in report.singular_values],
    }


def decay_comparison_dict(cmp: DecayComparison, K_list: list[int]) -> dict:
    return {
        "K_list": [int(k) for k in K_list],
        "bmo_scale": float(cmp.bmo_scale),
        "smooth": spectral_report_dict(cmp.smooth, K_list),
        "spike": spectral_report_dict(cmp.spike, K_list),
    }
