"""Young functions t^p [log(e+t)]^a, Orlicz (Luxemburg) averages over cubes,
and BMO norms.

The Orlicz average of f over a cube Q is the infimum lambda* of the lambda > 0
with avg_Q Phi(|f|/lambda) <= 1, where that average, decreasing in lambda,
equals 1. Safeguarded Newton finds it in s = log(max|f| / lambda), on
F(s) = log avg_Q Phi(|f|/lambda) factored about the cube's largest cell, which
overflows for no p and a; a band check certifies it: the value is feasible
(F <= 0), and the lower end, ROOT_BAND below it (relative), is not.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import Cube, GridFunction, per_cube

__all__ = [
    "YoungFunction",
    "OrliczAverage",
    "OrliczConvergenceError",
    "young_eval",
    "young_inverse_at_one",
    "orlicz_average",
    "orlicz_average_rows",
    "bmo_norm",
]

ROOT_BAND = 1e-12  # relative width of the certified bracket [lower, value]
NEWTON_TOL = 1e-7  # a step in s this small ends the search, if the band check confirms it


class OrliczConvergenceError(RuntimeError):
    """A root's bracket can no longer halve, yet its band check fails."""


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

    @cached_property
    def log_t_star(self) -> float:
        """log t*, where Phi(t*) = 1: solved once per YoungFunction."""
        return float(np.log(young_inverse_at_one(self)))


@dataclass(frozen=True)
class OrliczAverage:
    value: float
    iterations: int
    bracket: tuple[float, float]


def young_eval(phi: YoungFunction, t):
    """Phi(t) elementwise, inf where it overflows; t must be nonnegative.

    Phi is evaluated as (t log(e+t)^(a/p))^p, so that where Phi is in range no
    factor leaves the float range on its own (t^p underflowing to 0 while
    log(e+t)^a overflows would give 0 * inf = NaN)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("Young functions are evaluated at t >= 0")
    with np.errstate(all="ignore"):
        out = (t * np.log(np.e + t) ** (phi.a / phi.p)) ** phi.p
    return float(out) if out.ndim == 0 else out


def young_inverse_at_one(phi: YoungFunction) -> float:
    """The t* with Phi(t*) = 1: e^s at the root of f = 1 on one cell, from s = 0 >= s*."""
    one = np.ones((1, 1))
    _, _, s, _ = _certified_roots(one, one, np.ones(1), np.zeros(1), np.full(1, -np.inf),
                                  np.zeros(1), phi)
    return float(np.exp(s[0]))


def _log_mean_phi(r: np.ndarray, r_p: np.ndarray, s: np.ndarray, phi: YoungFunction,
                  slope: bool = False):
    """Per row, F(s) = log mean Phi(r e^s), and with slope=True also F'(s).

    r holds |f| / max|f| per row (so each row's largest entry is 1) and
    r_p = r**p. With L = log(e + r e^s) and L_1 = log(e + e^s), F(s) =
    p s + a log L_1 + log mean(r^p (L / L_1)^a): a log-sum-exp shifted by its
    largest term (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41, 2021),
    which Phi's monotonicity names in advance, so no term exceeds 1. F' is the
    Phi-weighted mean of t Phi'(t)/Phi(t) = p + a t / ((e+t) L), in [p, p+a].
    Rows sum by einsum, whose sum for a row does not depend on the others.
    """
    p, a, n = phi.p, phi.a, r.shape[1]
    e_s = np.exp(s)
    t = r * e_s[:, None]
    log_e_t, log_1 = np.log(np.e + t), np.log(np.e + e_s)
    terms = r_p * (log_e_t / log_1[:, None]) ** a
    total = np.einsum("ij->i", terms)
    f = p * s + a * np.log(log_1) + np.log(total / n)
    if not slope:
        return f
    t /= (np.e + t) * log_e_t
    return f, p + a * np.einsum("ij,ij->i", terms, t) / total


def _certified_roots(r: np.ndarray, r_p: np.ndarray, top: np.ndarray, s: np.ndarray,
                     lo: np.ndarray, hi: np.ndarray, phi: YoungFunction,
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Per row of |f| = top * r (r_p = r**p): the certified bracket's value and
    lower end, the root s = log(top / lambda*), and the most steps a row took.

    Safeguarded Newton (Press et al., Numerical Recipes, 3rd ed., 9.4) runs
    from s inside [lo, hi], which must hold the root; as F' lies in [p, p+a],
    each evaluation narrows it. A step out of it, or not under half the row's
    last, bisects it instead, unless under NEWTON_TOL. After such a step, or
    one to the middle of a bracket that can no longer halve, the band check
    evaluates F at lambda = top e^-s. If feasible, lambda is the value and
    lambda (1 - ROOT_BAND), the lower end, must be infeasible; if not, lambda
    is the lower end and the value lambda (1 + ROOT_BAND) must be feasible,
    as F' >= p shows, or else F. A row that fails searches on, or raises
    OrliczConvergenceError once its bracket can no longer halve (ValueError
    if lambda is subnormal, where floats may lie more than a band apart).
    """
    p, a, rows = phi.p, phi.a, len(s)
    value, lower, last = np.empty(rows), np.empty(rows), np.full(rows, np.inf)
    is_open, todo, steps = np.ones(rows, dtype=bool), np.arange(rows), 0

    def evaluate(k: np.ndarray, at: np.ndarray, slope: bool = False):
        """F (and F') at s = at on rows k, narrowing their brackets."""
        out = _log_mean_phi(*((r, r_p) if len(k) == rows else (r[k], r_p[k])), at, phi, slope)
        f = out[0] if slope else out
        ends = (at - f / p, at - f / (p + a))
        lo[k] = np.maximum(lo[k], np.minimum(*ends))
        hi[k] = np.minimum(hi[k], np.maximum(*ends))
        return out

    def halves(k: np.ndarray) -> np.ndarray:
        return (lo[k] < 0.5 * (lo[k] + hi[k])) & (0.5 * (lo[k] + hi[k]) < hi[k])

    with np.errstate(all="ignore"):  # a NaN or inf is an evaluation gone wrong: it raises below
        while len(todo):
            steps += 1
            at = s[todo]
            f, slope = evaluate(todo, at, slope=True)
            step = -f / slope
            newton = (np.abs(step) < 0.5 * last[todo]) & (
                (np.abs(step) < NEWTON_TOL) | ((lo[todo] <= at + step) & (at + step <= hi[todo])))
            step = np.where(newton, step, 0.5 * (lo[todo] + hi[todo]) - at)
            s[todo] = at + step
            last[todo] = np.abs(step)

            k = todo[~(last[todo] >= NEWTON_TOL) | ~halves(todo)]  # a NaN step too: it raises
            if not len(k):
                continue
            lam = top[k] * np.exp(-s[k])
            at = np.log(top[k] / lam)
            f = evaluate(k, at)
            feasible = f <= 0.0
            other = lam * np.where(feasible, 1.0 - ROOT_BAND, 1.0 + ROOT_BAND)
            at_other = np.log(top[k] / other)
            f += p * (at_other - at)  # as F' >= p, F at the other end is past this bound
            unsure = np.flatnonzero(np.where(feasible, f <= 0.0, f > 0.0))
            if len(unsure):
                f[unsure] = evaluate(k[unsure], at_other[unsure])
            certified = np.where(feasible, f > 0.0, f <= 0.0)
            stuck = ~(certified | halves(k))
            if np.any(stuck):
                if np.any(lam[stuck] < np.finfo(float).tiny):
                    raise ValueError(
                        f"an Orlicz average is subnormal (below {np.finfo(float).tiny:.3g}), "
                        f"where floats lie too far apart for a bracket {ROOT_BAND:g} wide at its "
                        f"magnitude; scale f by a power of two, as the average scales with it")
                raise OrliczConvergenceError(
                    "the bracket of an Orlicz root can no longer halve, and its band check fails")
            value[k], lower[k] = np.where(feasible, lam, other), np.where(feasible, other, lam)
            is_open[k[certified]] = False
            todo = np.flatnonzero(is_open)
    return value, lower, s, steps


def orlicz_average_rows(blocks: np.ndarray, phi: YoungFunction,
                        ) -> tuple[np.ndarray, int, np.ndarray]:
    """Luxemburg averages of |f| over cubes of one length, one per row of blocks.

    blocks is (n_cubes, n_cells), as `grid.per_cube` gathers it, and holds
    |f| (callers pass nonnegative values; no copy takes |.|). Returns the
    per-row average (the feasible end of its certified bracket), the Newton
    step count of the slowest row, and the per-row infeasible lower end; 0
    where f vanishes.

    With Phi(t*) = 1, an n-cell cube's root s* = log(max|f| / lambda*) lies in
    [log t*, log t* + log(n)/p], as the largest of the n terms of mean Phi = 1
    lies in [1, n]. Newton starts at log t* - log(mean (|f|/max|f|)^p) / p,
    exact for a = 0 or constant f.
    """
    blocks = np.asarray(blocks, dtype=float)
    n = blocks.shape[1]
    # down the columns of a contiguous transposed copy: numpy's reduction
    # along short rows costs far more per element; max is exact either way
    top = np.ascontiguousarray(blocks.T).max(axis=0)
    live = top > 0.0
    value, lower, top = np.zeros(len(top)), np.zeros(len(top)), top[live]
    r = blocks[live] / top[:, None]
    r_p = r**phi.p
    lo = np.full(len(top), phi.log_t_star)
    s = lo - np.log(np.einsum("ij->i", r_p) / n) / phi.p
    value[live], lower[live], _, steps = _certified_roots(
        r, r_p, top, s, lo, lo + np.log(n) / phi.p, phi)
    return value, steps, lower


def orlicz_average(f: GridFunction, cube: Cube, phi: YoungFunction) -> OrliczAverage:
    """Orlicz average of f over one cube, with its bracket (lower, value),
    ROOT_BAND wide: avg_Q Phi(|f|/lambda) <= 1 at the value and > 1 at the
    lower end, as F evaluates them; one end sits within rounding of the root.
    """
    cube.check(f.grid)
    cells = np.abs(f.values[None, cube.i0:cube.i0 + cube.n_cells])
    vals, steps, los = orlicz_average_rows(cells, phi)
    return OrliczAverage(float(vals[0]), steps, (float(los[0]), float(vals[0])))


def bmo_norm(b: GridFunction, cubes: Sequence[Cube]) -> float:
    """sup over the cube family of the mean oscillation avg_Q |b - avg_Q b|."""

    def oscillation(blocks: np.ndarray) -> np.ndarray:
        means = np.sum(blocks, axis=1) / blocks.shape[1]
        return np.mean(np.abs(blocks - means[:, None]), axis=1)

    return float(np.max(per_cube(oscillation, b.grid, cubes, b.values)))
