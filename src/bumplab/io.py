"""Serialization: grid functions and curves as CSV, reports as JSON.

The writers only write files; the layout of every report's result is built
by the CLI. All writes are atomic (temp file + rename) so a failed write
never leaves a partial file, and all encodings are deterministic:
re-running a probe with the same config must produce byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .grid import GridFunction

__all__ = [
    "write_grid_function_csv",
    "write_curve_csv",
    "write_json",
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
                    rows: list[tuple[float, float]] | np.ndarray) -> None:
    """One row per (x, y) pair of rows, a list of pairs or an (n, 2) array."""
    xs, ys = np.asarray(rows, dtype=float).reshape(len(rows), 2).T.tolist()
    _atomic_write_text(Path(path), _csv_text(f"{header[0]},{header[1]}", xs, ys))


def write_json(path: str | Path, obj: dict) -> None:
    """Raises ValueError, before writing, if obj holds a NaN or an infinity."""
    _atomic_write_text(Path(path), json.dumps(obj, sort_keys=True, indent=2,
                                              allow_nan=False) + "\n")
