"""Reference outputs and the tolerance check against them.

A command's outputs (every file it writes to its ``--out`` directory) are
flattened into leaves keyed ``<file>/<path>``:

* JSON reports: one leaf per scalar; a list of numbers, or a list of
  equal-length number lists (a curve such as ``[[N, tail], ...]``), is one
  array leaf;
* CSV files: one array leaf per column.

Numbers are compared with a tolerance relative to the largest magnitude in
the reference: ``|got - ref| <= TOLERANCE * max|ref|`` elementwise, taken
per column for 2-D leaves and against ``|ref|`` itself for scalars. For
singular values that scale is sigma_1, so last-bit changes pass and
near-zero tails do not fail on noise. A reference that is exactly zero must
be matched exactly. NaN matches NaN. Strings, booleans, nulls, file names
and array shapes must match exactly.

A stored reference is the set of files each command wrote, kept as written
under ``expected/<workload>/v<variant>/c<command index>/`` (see ``stored``).
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

TOLERANCE = 1e-9


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _as_array(x):
    """A JSON list that is a vector or a table of numbers, else None."""
    if not isinstance(x, list) or not x:
        return None
    if all(_is_number(v) for v in x):
        return np.asarray(x, dtype=float)
    if all(isinstance(r, list) and r and len(r) == len(x[0])
           and all(_is_number(v) for v in r) for r in x):
        return np.asarray(x, dtype=float)
    return None


def _flatten_json(obj, path: str, out: dict) -> None:
    arr = _as_array(obj)
    if arr is not None:
        out[path] = arr
    elif isinstance(obj, dict):
        if not obj:
            out[path] = {}
        for key in sorted(obj):
            _flatten_json(obj[key], f"{path}.{key}", out)
    elif isinstance(obj, list):
        out[f"{path}#len"] = len(obj)
        for i, item in enumerate(obj):
            _flatten_json(item, f"{path}[{i}]", out)
    elif _is_number(obj):
        out[path] = np.asarray(float(obj))
    else:
        out[path] = obj


def read_outputs(outdir: Path) -> dict:
    """Every output file of one command, flattened to ``{leaf key: value}``."""
    leaves: dict = {}
    for path in sorted(Path(outdir).iterdir()):
        name = path.name
        if name.endswith(".json"):
            with open(path) as fh:
                _flatten_json(json.load(fh), name, leaves)
        elif name.endswith(".csv"):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))
            header, body = rows[0], rows[1:]
            leaves[f"{name}/#header"] = ",".join(header)
            table = np.asarray(body, dtype=float).reshape(len(body), len(header))
            for col, label in enumerate(header):
                leaves[f"{name}/{label}"] = table[:, col]
        else:
            leaves[f"{name}/#unparsed"] = path.read_bytes().decode("utf-8", "replace")
    return leaves


def compare(got: dict, ref: dict, tol: float = TOLERANCE) -> list[str]:
    """Mismatches between two flattened outputs; empty when they agree."""
    problems = []
    for key in sorted(set(got) | set(ref)):
        if key not in got:
            problems.append(f"{key}: missing from output")
            continue
        if key not in ref:
            problems.append(f"{key}: not in reference")
            continue
        g, r = got[key], ref[key]
        if isinstance(r, np.ndarray) or isinstance(g, np.ndarray):
            if not (isinstance(r, np.ndarray) and isinstance(g, np.ndarray)):
                problems.append(f"{key}: type differs from reference")
                continue
            if g.shape != r.shape:
                problems.append(f"{key}: shape {g.shape} != reference {r.shape}")
                continue
            if r.size == 0:
                continue
            scale = np.abs(r) if r.ndim == 0 else np.nanmax(np.abs(r), axis=0)
            with np.errstate(invalid="ignore"):
                bad = ~((np.abs(g - r) <= tol * scale) | (np.isnan(g) & np.isnan(r)))
            if np.any(bad):
                worst = float(np.nanmax(np.abs(g - r)))
                problems.append(f"{key}: {int(np.sum(bad))} value(s) off reference, "
                                f"max abs diff {worst:.3e}, tolerance {tol:g} x max|ref|")
        elif g != r:
            problems.append(f"{key}: {g!r} != reference {r!r}")
    return problems


def stored(root: Path, workload: str, variant: int, idx: int) -> Path:
    """Directory holding the reference files of one command of one variant."""
    return Path(root) / workload / f"v{variant}" / f"c{idx}"
