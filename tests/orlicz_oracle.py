"""Reference Luxemburg averages by bracketing and bisection, one Phi
evaluation of every open row per step.

This is how bumplab computed every Orlicz average, one block of
same-length cubes at a time, before it located the root by Newton and replayed this arithmetic on per-row
scalars. The property tests require the fast path to return the same values,
lower bracket ends and iteration counts, and to raise the same errors.
"""

from __future__ import annotations

import numpy as np

from bumplab.orlicz import (
    DEFAULT_REL_TOL,
    MAX_ITERATIONS,
    OrliczConvergenceError,
    OrliczOverflowError,
    YoungFunction,
)


def _phi_means(blocks: np.ndarray, lam: np.ndarray, phi: YoungFunction) -> np.ndarray:
    """Row means of Phi(blocks / lambda_row); flags overflow."""
    with np.errstate(over="ignore", invalid="ignore"):
        t = blocks / lam[:, None]
        vals = t**phi.p * np.log(np.e + t) ** phi.a
    if not np.all(np.isfinite(vals)):
        raise OrliczOverflowError(
            "Phi(|f|/lambda) overflowed during bracketing; rescale f"
        )
    return vals.mean(axis=1)


def orlicz_average_values(blocks: np.ndarray, phi: YoungFunction,
                          rel_tol: float = DEFAULT_REL_TOL,
                          ) -> tuple[np.ndarray, int, np.ndarray]:
    """Luxemburg averages for many same-length cubes at once.

    blocks: (n_cubes, cells_per_cube) array of |f| samples. Returns the
    per-row average (the feasible bracket end), the iteration count, and the
    per-row infeasible lower bracket end. Rows that are identically zero
    return 0 by the norm convention.
    """
    if not (0.0 < rel_tol <= 1e-3):
        raise ValueError("rel_tol must be in (0, 1e-3]")
    blocks = np.abs(np.asarray(blocks, dtype=float))
    n = blocks.shape[0]
    out = np.zeros(n)
    out_lo = np.zeros(n)
    row_max = blocks.max(axis=1)
    live = row_max > 0.0
    if not np.any(live):
        return out, 0, out_lo

    work = blocks[live]
    lam0 = row_max[live]

    # Bracket [lo, hi] with mean Phi > 1 at lo and <= 1 at hi, starting from
    # lambda = max|f| and doubling/halving. Halving terminates quickly because
    # the row mean is at least Phi(max/lambda)/cells.
    feasible0 = _phi_means(work, lam0, phi) <= 1.0
    lo = np.where(feasible0, np.nan, lam0)
    hi = np.where(feasible0, lam0, np.nan)
    iterations = 0

    need_lo = feasible0.copy()
    lam = lam0.copy()
    while np.any(need_lo):
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise OrliczConvergenceError("bracketing (halving) exceeded iteration cap")
        lam = np.where(need_lo, lam / 2.0, lam)
        idx = np.nonzero(need_lo)[0]
        feas = _phi_means(work[idx], lam[idx], phi) <= 1.0
        newly = idx[~feas]
        lo[newly] = lam[newly]
        need_lo[newly] = False
        hi[idx[feas]] = lam[idx[feas]]

    need_hi = ~feasible0
    lam = lam0.copy()
    while np.any(need_hi):
        iterations += 1
        if iterations > MAX_ITERATIONS:
            raise OrliczConvergenceError("bracketing (doubling) exceeded iteration cap")
        lam = np.where(need_hi, lam * 2.0, lam)
        idx = np.nonzero(need_hi)[0]
        feas = _phi_means(work[idx], lam[idx], phi) <= 1.0
        newly = idx[feas]
        hi[newly] = lam[newly]
        need_hi[newly] = False
        lo[idx[~feas]] = lam[idx[~feas]]

    for _ in range(MAX_ITERATIONS):
        open_rows = (hi - lo) > rel_tol * hi
        if not np.any(open_rows):
            break
        iterations += 1
        mid = 0.5 * (lo + hi)
        idx = np.nonzero(open_rows)[0]
        feas = _phi_means(work[idx], mid[idx], phi) <= 1.0
        hi[idx[feas]] = mid[idx[feas]]
        lo[idx[~feas]] = mid[idx[~feas]]
    else:
        raise OrliczConvergenceError("bisection exceeded iteration cap")

    out[live] = hi
    out_lo[live] = lo
    return out, iterations, out_lo


def orlicz_average_groups(cells: np.ndarray, groups, phi: YoungFunction,
                          rel_tol: float = DEFAULT_REL_TOL,
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`orlicz.orlicz_average_groups` by the reference: each length group's
    block in turn, the first error raised."""
    cells = np.asarray(cells, dtype=float)
    runs = [orlicz_average_values(cells[g.rows()], phi, rel_tol) for g in groups]
    if not runs:
        return np.zeros(0), np.zeros(0, dtype=int), np.zeros(0)
    return (np.concatenate([r[0] for r in runs]), np.array([r[1] for r in runs]),
            np.concatenate([r[2] for r in runs]))
