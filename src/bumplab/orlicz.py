"""Young functions t^p [log(e+t)]^a, Orlicz (Luxemburg) averages over cubes,
and BMO norms.

The Orlicz average of f over a cube Q is the infimum of lambda > 0 such that
the cube average of Phi(|f|/lambda) is at most 1. The map
lambda -> avg_Q Phi(|f|/lambda) is continuous and strictly decreasing wherever
f is not identically zero on Q, so the infimum is located by bracketing and
bisection; the returned value is always on the feasible side of the bracket.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Cube, GridFunction, per_cube

__all__ = [
    "YoungFunction",
    "OrliczAverage",
    "OrliczOverflowError",
    "OrliczConvergenceError",
    "young_eval",
    "young_inverse_at_one",
    "orlicz_average",
    "orlicz_average_values",
    "bmo_norm",
]

DEFAULT_REL_TOL = 1e-10
MAX_ITERATIONS = 200


class OrliczOverflowError(FloatingPointError):
    """Phi evaluation left the floating range; rescale f and retry."""


class OrliczConvergenceError(RuntimeError):
    """Bracketing or bisection failed to converge within the iteration cap."""


@dataclass(frozen=True)
class YoungFunction:
    """Phi(t) = t^p [log(e+t)]^a with p > 1 and a >= 0."""

    p: float
    a: float = 0.0

    def __post_init__(self) -> None:
        if not self.p > 1:
            raise ValueError("Young exponent p must be > 1")
        if self.a < 0:
            raise ValueError("log exponent a must be >= 0 in this build")

    @property
    def p_conj(self) -> float:
        return self.p / (self.p - 1.0)


@dataclass(frozen=True)
class OrliczAverage:
    value: float
    iterations: int
    bracket: tuple[float, float]


def young_eval(phi: YoungFunction, t):
    """Phi(t) elementwise; t must be nonnegative."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("Young functions are evaluated at t >= 0")
    out = t**phi.p * np.log(np.e + t) ** phi.a
    if out.ndim == 0:
        return float(out)
    return out


def young_inverse_at_one(phi: YoungFunction) -> float:
    """The t* with Phi(t*) = 1, by doubling then bisection to 1e-12."""
    hi = 1.0
    while young_eval(phi, hi) < 1.0:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if abs(young_eval(phi, mid) - 1.0) <= 1e-12:
            return mid
        if young_eval(phi, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    raise OrliczConvergenceError("young_inverse_at_one did not converge")


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


def orlicz_average(f: GridFunction, cube: Cube, phi: YoungFunction,
                   rel_tol: float = DEFAULT_REL_TOL) -> OrliczAverage:
    """Orlicz average of f over one cube.

    The result lambda satisfies avg_Q Phi(|f|/lambda) <= 1 while
    lambda*(1 - rel_tol) is infeasible, so the bracket pins the infimum to
    relative width rel_tol.
    """
    cube.check(f.grid)
    block = np.abs(f.values[cube.i0 : cube.i0 + cube.n_cells])
    if block.max(initial=0.0) == 0.0:
        return OrliczAverage(0.0, 0, (0.0, 0.0))
    vals, iters, los = orlicz_average_values(block[None, :], phi, rel_tol)
    return OrliczAverage(float(vals[0]), iters, (float(los[0]), float(vals[0])))


def bmo_norm(b: GridFunction, cubes: list[Cube]) -> float:
    """sup over the cube family of the mean oscillation avg_Q |b - avg_Q b|."""

    def oscillation(blocks: np.ndarray) -> np.ndarray:
        means = np.sum(blocks, axis=1) / blocks.shape[1]
        return np.mean(np.abs(blocks - means[:, None]), axis=1)

    return float(np.max(per_cube(oscillation, b.grid, cubes, b.values)))
