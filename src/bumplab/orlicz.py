"""Young functions t^p [log(e+t)]^a, Orlicz (Luxemburg) averages over cubes,
and BMO norms.

The Orlicz average of f over a cube Q is the infimum of lambda > 0 such that
the cube average of Phi(|f|/lambda) is at most 1. The map
lambda -> avg_Q Phi(|f|/lambda) is continuous and strictly decreasing wherever
f is not identically zero on Q, so the infimum is located by bracketing and
bisection; the returned value is always on the feasible side of the bracket.

Each bracketing and bisection step asks whether a lambda is feasible. Newton's
method first locates every cube's root lambda* (where the average is 1), and
the answer is checked by evaluating Phi at lambda*(1 -+ ROOT_BAND). Outside
that band, lambda >= lambda* answers; inside it, or where the check fails,
Phi is evaluated on the cube. The bracketing and bisection arithmetic itself
is replayed on one scalar per cube, so every value, bracket end and iteration
count is the one that evaluating Phi at every step gives.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grid import Cube, GridFunction, LengthGroup, gather_rows, per_cube

__all__ = [
    "YoungFunction",
    "OrliczAverage",
    "OrliczOverflowError",
    "OrliczConvergenceError",
    "young_eval",
    "young_inverse_at_one",
    "orlicz_average",
    "orlicz_average_groups",
    "bmo_norm",
]

DEFAULT_REL_TOL = 1e-10
MAX_ITERATIONS = 200
ROOT_BAND = 1e-12  # relative half-width around lambda* where Phi decides
NEWTON_STEPS = 40
NEWTON_TOL = 1e-7  # a Newton step in log(lambda) this small ends the search


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
        if not 1 < self.p < np.inf:
            raise ValueError(f"Young exponent p must be > 1 and finite, got {self.p!r}")
        if not 0 <= self.a < np.inf:
            raise ValueError(f"log exponent a must be >= 0 and finite, got {self.a!r}")


@dataclass(frozen=True)
class OrliczAverage:
    value: float
    iterations: int
    bracket: tuple[float, float]


def young_eval(phi: YoungFunction, t):
    """Phi(t) elementwise, inf where it overflows; t must be nonnegative."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("Young functions are evaluated at t >= 0")
    out = _phi(t, phi)
    return float(out) if out.ndim == 0 else out


def young_inverse_at_one(phi: YoungFunction) -> float:
    """The t* with Phi(t*) = 1, by doubling then bisection to 1e-12."""
    hi = 1.0
    while young_eval(phi, hi) < 1.0:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        value = young_eval(phi, mid)
        if abs(value - 1.0) <= 1e-12:
            return mid
        if value < 1.0:
            lo = mid
        else:
            hi = mid
    raise OrliczConvergenceError("young_inverse_at_one did not converge")


def _phi(t: np.ndarray, phi: YoungFunction) -> np.ndarray:
    """Phi(t) elementwise; inf or nan where it overflows."""
    with np.errstate(all="ignore"):
        return t**phi.p * np.log(np.e + t) ** phi.a


def _phi_means(blocks: np.ndarray, lam: np.ndarray, phi: YoungFunction) -> np.ndarray:
    """Row means of Phi(blocks / lambda_row); inf or nan where Phi overflowed."""
    return _phi(blocks / lam[:, None], phi).mean(axis=1)


def _roots(blocks: np.ndarray, phi: YoungFunction, t_star: float) -> np.ndarray:
    """Per row, the lambda* with mean Phi(row / lambda*) = 1, or NaN.

    Newton's method on log mean Phi against log lambda, from
    lambda = mean(row) / t* where Phi(t*) = 1. The slope of that curve lies
    in [-p - a, -p], and each step about squares the error, so the search
    ends after a step below NEWTON_TOL with the error far inside ROOT_BAND.
    Rows still stepping after NEWTON_STEPS, or whose step is not finite,
    give NaN.
    """
    p, a = phi.p, phi.a
    weights = np.full(blocks.shape[1], 1.0 / blocks.shape[1])  # row means as a matvec
    todo = np.arange(len(blocks))
    mu = np.log(blocks @ weights / t_star)
    for _ in range(NEWTON_STEPS):
        if not len(todo):
            break
        rows = blocks if len(todo) == len(blocks) else blocks[todo]
        t = rows / np.exp(mu[todo])[:, None]
        if a == 0:
            step = np.log(t**p @ weights) / p
        else:
            log_e_t = np.log(np.e + t)
            phi_t = t**p * log_e_t**a
            mean = phi_t @ weights
            slope = (phi_t * (p + a * t / ((np.e + t) * log_e_t))) @ weights
            step = np.log(mean) * mean / slope
        ok = np.isfinite(step)
        mu[todo] = np.where(ok, mu[todo] + step, np.nan)
        todo = todo[ok & (np.abs(step) > NEWTON_TOL)]
    mu[todo] = np.nan
    return np.exp(mu)


# The ways a group's bisection fails, in the order it would meet them.
_OVERFLOW, _HALVING, _DOUBLING, _BISECTION, _NONE = range(5)
_FAILURES = {
    _OVERFLOW: (OrliczOverflowError,
                "Phi(|f|/lambda) overflowed while locating the Orlicz average; rescale f"),
    _HALVING: (OrliczConvergenceError, "bracketing (halving) exceeded iteration cap"),
    _DOUBLING: (OrliczConvergenceError, "bracketing (doubling) exceeded iteration cap"),
    _BISECTION: (OrliczConvergenceError, "bisection exceeded iteration cap"),
}


def orlicz_average_groups(cells: np.ndarray, groups: list[LengthGroup], phi: YoungFunction,
                          rel_tol: float = DEFAULT_REL_TOL,
                          ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Luxemburg averages of |cells| over every cube of every length group.

    cells holds one value per grid cell; groups are the length groups
    `grid.per_cube` passes. Returns the per-cube average (the feasible
    bracket end), each group's iteration count, and the per-cube infeasible
    lower bracket end, cubes group after group. Cubes where f is identically
    zero return 0 by the norm convention.

    Each cube is bracketed from lambda = max|f| by halving or doubling, then
    bisected to relative width rel_tol, on its own scalars and for all groups
    at once. A group's count is the sum over the three phases of the most
    steps one of its cubes takes. The error raised is the one met first by
    the first group, in order, that meets one.
    """
    if not (0.0 < rel_tol <= 1e-3):
        raise ValueError("rel_tol must be in (0, 1e-3]")
    cells = np.abs(np.asarray(cells, dtype=float))
    t_star = young_inverse_at_one(phi)

    # Cubes are numbered group after group; group g holds starts[g]:starts[g+1].
    # Per cube: lambda_0 = max|f| and the band (lo_b, hi_b) around its root,
    # NaN where no root is known.
    starts = np.cumsum([0, *(len(g.i0) for g in groups)])
    n_groups, n_cubes = len(groups), int(starts[-1])
    lam0, lo_b, hi_b = np.zeros(n_cubes), np.full(n_cubes, np.nan), np.full(n_cubes, np.nan)
    def group_of(k: np.ndarray) -> np.ndarray:
        return np.searchsorted(starts, k, side="right") - 1

    def evaluate(k: np.ndarray, lam: np.ndarray) -> np.ndarray:
        """mean Phi(|f|/lam) <= 1 on cubes k, by evaluating Phi on their cells."""
        out = np.empty(len(k), dtype=bool)
        g = group_of(k)
        for gi in set(g.tolist()):
            e = np.flatnonzero(g == gi)
            rows = groups[gi].i0[k[e] - starts[gi], None] + np.arange(groups[gi].n_cells)
            out[e] = _phi_means(cells[rows], lam[e], phi) <= 1.0
        return out

    def feasible(lam: np.ndarray, among: np.ndarray) -> np.ndarray:
        """mean Phi(|f|/lam) <= 1, per cube, for the cubes in the mask among:
        by the root outside its band, by evaluating Phi inside it."""
        out = lam >= hi_b
        unsure = np.flatnonzero(among & ~(out | (lam <= lo_b)))
        if len(unsure):
            out[unsure] = evaluate(unsure, lam[unsure])
        return out

    def group_max(per_cube: np.ndarray) -> np.ndarray:
        """Each group's largest value (0 for none); NaN if it holds one."""
        return np.array([per_cube[a:b].max(initial=0) for a, b in zip(starts, starts[1:])])

    failure = np.full(n_groups, _NONE)

    def fail(code: int, in_group: np.ndarray) -> None:
        np.minimum(failure, np.where(in_group, code, _NONE), out=failure)

    with np.errstate(all="ignore"):  # for _roots and _phi_means, which leave numpy's warnings on
        for group, start, end in zip(groups, starts, starts[1:]):
            blocks = cells[group.rows()]
            # down the columns of a contiguous transposed copy: numpy's reduction
            # along short rows costs far more per element; max is exact either way
            lam0[start:end] = np.ascontiguousarray(blocks.T).max(axis=0)
            nonzero = lam0[start:end] > 0.0
            if not np.all(nonzero):
                blocks = blocks[nonzero]
            root = _roots(blocks, phi, t_star)
            lo, hi = root * (1.0 - ROOT_BAND), root * (1.0 + ROOT_BAND)
            confirmed = (_phi_means(blocks, hi, phi) <= 1.0) & (_phi_means(blocks, lo, phi) > 1.0)
            lo_b[start:end][nonzero] = np.where(confirmed, lo, np.nan)
            hi_b[start:end][nonzero] = np.where(confirmed, hi, np.nan)
        live = lam0 > 0.0
        # Bracket [lo, hi], infeasible at lo and feasible at hi, from lambda_0:
        # a feasible cube halves lambda (its hi) until infeasible, an
        # infeasible one doubles it (its lo) until feasible. The cap refuses a
        # cube's step 201.
        halves = feasible(lam0, live)
        lo = np.where(halves, np.nan, lam0)
        hi = np.where(halves, lam0, np.nan)
        steps = np.zeros(n_cubes, dtype=np.int16)
        active = live.copy()
        while np.any(active):
            capped = active & (steps == MAX_ITERATIONS)
            steps[capped] += 1
            active &= ~capped
            lam = np.where(halves, hi / 2.0, lo * 2.0)
            steps += active
            f = feasible(lam, active)
            np.copyto(hi, lam, where=active & f)
            np.copyto(lo, lam, where=active & ~f)
            active &= f == halves
        halving = group_max(np.where(halves, steps, 0)).astype(int)
        doubling = group_max(np.where(halves, 0, steps)).astype(int)
        # The smallest lambda a cube visits is lambda_0 or, once a halving
        # cube stops, its lo; Phi overflows there if anywhere, and since Phi
        # increases, in a group if at its largest |f| / lambda.
        t_max = group_max(np.where(live, lam0 / np.fmin(lam0, lo), 0.0))
        fail(_OVERFLOW, ~np.isfinite(_phi(t_max, phi)))
        fail(_HALVING, halving > MAX_ITERATIONS)
        fail(_DOUBLING, halving + doubling > MAX_ITERATIONS)

        # Bisection, one step of every open cube per pass. A cube still open
        # after MAX_ITERATIONS - 1 steps fails.
        steps[:] = 0
        is_open = (hi - lo) > rel_tol * hi
        failed = np.flatnonzero(failure != _NONE)
        if len(failed):  # the first failure raises below; groups after it do not run
            is_open[starts[failed[0]]:] = False
        mid = np.empty(n_cubes)
        for step in range(MAX_ITERATIONS):
            if not np.any(is_open):
                break
            if step == MAX_ITERATIONS - 1:
                fail(_BISECTION, group_max(is_open) > 0)
                break
            np.add(lo, hi, out=mid)
            mid *= 0.5
            f = feasible(mid, is_open)
            np.copyto(hi, mid, where=is_open & f)
            np.copyto(lo, mid, where=is_open & ~f)
            steps += is_open
            is_open &= (hi - lo) > rel_tol * hi
    if np.any(failure != _NONE):
        error, message = _FAILURES[int(failure[failure != _NONE][0])]
        raise error(message)

    hi[~live] = lo[~live] = 0.0
    return hi, halving + doubling + group_max(steps).astype(int), lo


def orlicz_average(f: GridFunction, cube: Cube, phi: YoungFunction,
                   rel_tol: float = DEFAULT_REL_TOL) -> OrliczAverage:
    """Orlicz average of f over one cube.

    The result lambda satisfies avg_Q Phi(|f|/lambda) <= 1 while
    lambda*(1 - rel_tol) is infeasible, so the bracket pins the infimum to
    relative width rel_tol.
    """
    cube.check(f.grid)
    group = LengthGroup(cube.n_cells, np.array([cube.i0]))
    vals, iters, los = orlicz_average_groups(f.values, [group], phi, rel_tol)
    return OrliczAverage(float(vals[0]), int(iters[0]), (float(los[0]), float(vals[0])))


def bmo_norm(b: GridFunction, cubes: Sequence[Cube]) -> float:
    """sup over the cube family of the mean oscillation avg_Q |b - avg_Q b|."""

    def oscillation(blocks: np.ndarray) -> np.ndarray:
        means = np.sum(blocks, axis=1) / blocks.shape[1]
        return np.mean(np.abs(blocks - means[:, None]), axis=1)

    return float(np.max(per_cube(lambda groups, values: gather_rows(oscillation, groups, values),
                                 b.grid, cubes, b.values)))
