"""Weight pairs and every sup-over-cube constant: A_p, two-weight A_p, and
the logarithmically bumped two-weight conditions.

Each constant is a supremum over a finite cube family; any finite family
gives a lower bound for the true sup over all cubes. A report holds the value
and the argmax cube; the caller, which chose the family, names it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid import (Cube, CubeFamily, Grid, GridFunction, _check_weights, _checked_family,
                   _range_max, per_cube)
from .operators import MAXIMAL_CELL_CAP, maximal_fn
from .orlicz import YoungFunction, orlicz_average_rows

__all__ = [
    "WeightPair",
    "BumpSpec",
    "BumpReport",
    "ap_constant",
    "two_weight_ap",
    "bump_constant",
    "iterate_maximal",
]

# 1 - p' = 1 - p / (p - 1) cancels as p grows: A_p of power:0.5 (m = 64) is within 5e-11
# of an expm1/log1p evaluation up to this p - 1, 1.3e-3 off at p = 1e14, wrong past 1e16.
P_MINUS_ONE_CAP = 2.0**22

# iterate_maximal's work budget: k calls on m cells count k * max(m, 1024) cells, as
# below 1024 cells a call's log2 m numpy passes dominate (2-core Xeon: 0.7 ms at
# m = 64, 1.5 ms at 1024, 0.8 s at MAXIMAL_CELL_CAP), so no k runs past about 7 s.
MAXIMAL_WORK_CELLS = 8 * MAXIMAL_CELL_CAP


@dataclass(frozen=True)
class WeightPair:
    """u may vanish on part of the grid; v must be positive everywhere."""

    u: GridFunction
    v: GridFunction

    def __post_init__(self) -> None:
        _check_weights(self.u, self.v)
        if not np.any(self.u.values > 0):
            raise ValueError("u must be positive somewhere")


def _dual(p: float) -> float:
    """p' = p / (p - 1); ValueError unless 1 < p and p - 1 <= P_MINUS_ONE_CAP."""
    if not (p > 1 and p - 1.0 <= P_MINUS_ONE_CAP):
        raise ValueError(f"p must be > 1 with p - 1 <= 2^22, got {p!r}")
    return p / (p - 1.0)


@dataclass(frozen=True)
class BumpSpec:
    """Exponents of the bumped product norm.

    a_left/a_right are the log-bump exponents on the u- and v-side factors.
    a_left = None means the left factor is the plain average of u (the
    maximal-operator condition uses exactly that form).
    """

    p: float
    a_left: float | None
    a_right: float

    def __post_init__(self) -> None:
        _dual(self.p)  # the p rule

    @classmethod
    def from_preset(cls, name: str, p: float, delta: float = 1.0) -> "BumpSpec":
        """The "max", "czo" or "comm" exponents at (p, delta)."""
        pc = _dual(p)
        if name not in ("max", "czo", "comm"):
            raise ValueError(f"unknown preset {name!r}")
        if delta is None or delta <= 0:
            raise ValueError("presets require delta > 0")
        return cls(p, *{
            "max": (None, pc - 1.0 + delta),
            "czo": (p - 1.0 + delta, pc - 1.0 + delta),
            "comm": (2.0 * p - 1.0 + delta, 2.0 * pc - 1.0 + delta),
        }[name])


@dataclass
class BumpReport:
    constant: float
    argmax_cube: Cube


def _sup_report(values: np.ndarray, cubes: Sequence[Cube]) -> BumpReport:
    k = int(np.argmax(values))
    return BumpReport(constant=float(values[k]), argmax_cube=cubes[k])


def _mid_exponent(values: np.ndarray) -> int:
    """The midpoint of the binary exponents of the smallest and the largest
    positive value: scaling by 2^-e centres their range on 1."""
    positive = values[values > 0]
    _, (lo, hi) = np.frexp([positive.min(), positive.max()])
    return (int(lo) + int(hi)) // 2


def _ap_values(u: GridFunction, v: GridFunction, p: float, cubes: Sequence[Cube]) -> np.ndarray:
    """(avg_Q u) (avg_Q v^(1-p'))^(p-1) for every cube of the family.

    u and v are each scaled by an exact power of two, 2^-e_u and 2^-e_v,
    before the powers, so neither the powers nor the averages leave the float
    range on a weight that is merely very large or very small. The product
    scales as u / v, so the values are multiplied by 2^(e_u - e_v) at the
    end; for u = v that factor is exactly 1.
    """
    pc = _dual(p)
    e_u, e_v = _mid_exponent(u.values), _mid_exponent(v.values)

    def product(blocks_u: np.ndarray, blocks_d: np.ndarray) -> np.ndarray:
        return np.ldexp(blocks_u.mean(axis=1) * blocks_d.mean(axis=1) ** (p - 1.0), e_u - e_v)

    with np.errstate(over="ignore", divide="ignore"):  # a non-finite per-cube value is reported
        w = np.ldexp(v.values, -e_v) ** (1.0 - pc)
        scaled_u = np.ldexp(u.values, -e_u)
    return per_cube(product, u.grid, cubes, scaled_u, w)


def ap_constant(w: GridFunction, p: float, cubes: Sequence[Cube]) -> BumpReport:
    """sup over cubes of (avg_Q w) (avg_Q w^(1-p')) ^ (p-1); w keeps v's rule, w > 0."""
    _check_weights(v=w)
    return _sup_report(_ap_values(w, w, p, cubes), cubes)


def two_weight_ap(pair: WeightPair, p: float, cubes: Sequence[Cube]) -> BumpReport:
    """sup over cubes of (avg_Q u) (avg_Q v^(1-p')) ^ (p-1)."""
    return _sup_report(_ap_values(pair.u, pair.v, p, cubes), cubes)


class _Bump(NamedTuple):
    """A weight pair and bump spec, ready for per-cube values: F_left(Q) * F_right(Q)
    is the average of left over Q (the Orlicz average under phi_left, or the plain
    one where phi_left is None) times the Orlicz average of right under phi_right.
    Each YoungFunction solves its t* once, for the bounds and the values alike."""

    phi_left: YoungFunction | None
    phi_right: YoungFunction
    left: np.ndarray
    right: np.ndarray

    def values(self, grid: Grid, cubes: Sequence[Cube]) -> np.ndarray:
        def product(blocks_l: np.ndarray, blocks_r: np.ndarray) -> np.ndarray:
            if np.isinf(blocks_r).any():
                raise FloatingPointError("v^(-1/p) overflowed to inf on a cell of a cube "
                                         "whose value is needed; rescale v")
            right, _, _ = orlicz_average_rows(blocks_r, self.phi_right)
            if self.phi_left is None:
                return blocks_l.mean(axis=1) * right
            left, _, _ = orlicz_average_rows(blocks_l, self.phi_left)
            return left * right

        return per_cube(product, grid, cubes, self.left, self.right)

    def bounds(self, tops: Sequence[np.ndarray], grid: Grid | None = None,
               cubes: CubeFamily | None = None) -> np.ndarray:
        """An upper bound of F_left(Q) * F_right(Q) per cube, from the max of left and
        of right over each cube (tops) or, given the cubes, a tighter one from their
        gathered cells too: the plain average is at most its max, or itself, and the
        Orlicz average is at most _orlicz_bound. NaN where it is in doubt."""
        factors = []
        for top, f, phi in zip(tops, (self.left, self.right), (self.phi_left, self.phi_right)):
            if phi is None:  # a mean that overflows raises here as in values
                factors.append(top if cubes is None else
                               per_cube(lambda blocks: blocks.mean(axis=1), grid, cubes, f))
            else:
                power = None if cubes is None else per_cube(
                    lambda blocks, q=phi.p: _mean_power(blocks, q), grid, cubes, f)
                factors.append(_orlicz_bound(top, power, phi))
        return _bound_product(*factors)


def _mean_power(blocks: np.ndarray, q: float) -> np.ndarray:
    """mean((f / max f)^q) per row, in [1/n, 1]; 1 on a row of zeros, whose bound is
    0, and on a row that holds inf, whose bound is in doubt (a NaN would raise)."""
    top = blocks.max(axis=1)
    scaled = (0.0 < top) & (top < np.inf)
    power = np.mean((blocks / np.where(scaled, top, 1.0)[:, None]) ** q, axis=1)
    return np.where(scaled, power, 1.0)


def _orlicz_bound(top: np.ndarray, power: np.ndarray | None, phi: YoungFunction) -> np.ndarray:
    """An upper bound of the Orlicz average under Phi(t) = t^q log(e+t)^a of an f
    with max M = top, and with mean (f / M)^q = power if that is given.

    M / t* is one, as Phi(f / (M / t*)) <= Phi(t*) = 1. With lambda_q =
    (mean f^q)^(1/q), for lambda >= lambda_q mean Phi(f/lambda) <= (lambda_q /
    lambda)^q log(e + M/lambda)^a, so every lambda >= lambda_q log(e +
    M/lambda)^(a/q) is one too: a bisection in log(lambda / M) over
    [log(lambda_q / M), -log t*] keeps such a lambda as its upper end. Exact, up
    to rounding, on a single cell; with power, also for a = 0 or constant f."""
    hi = np.full(len(top), -phi.log_t_star)
    if power is not None:
        lo = floor = np.log(power) / phi.p  # log(lambda_q / M), at least -log(n) / q
        ratio = phi.a / phi.p
        for _ in range(BOUND_STEPS):
            mid = 0.5 * (lo + hi)
            feasible = mid >= floor + ratio * np.log(np.log(np.e + np.exp(-mid)))
            hi, lo = np.where(feasible, mid, hi), np.where(feasible, lo, mid)
    with np.errstate(over="ignore"):
        return top * np.exp(hi)


def _bound_product(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """left * right, or NaN where that is not finite or a factor is subnormal, where
    rounding may move it by far more than BOUND_MARGIN."""
    tiny = np.finfo(float).tiny
    with np.errstate(over="ignore", invalid="ignore"):
        out = left * right
    doubt = ~np.isfinite(out) | ((0.0 < left) & (left < tiny)) | ((0.0 < right) & (right < tiny))
    return np.where(doubt, np.nan, out)


def _bump(pair: WeightPair, spec: BumpSpec) -> _Bump:
    p = spec.p
    phi_left = None if spec.a_left is None else YoungFunction(p, spec.a_left)
    with np.errstate(over="ignore"):  # an inf raises only in a cube whose value is needed
        right = pair.v.values ** (-1.0 / p)
    return _Bump(phi_left, YoungFunction(_dual(p), spec.a_right),
                 pair.u.values if phi_left is None else pair.u.values ** (1.0 / p), right)


def _bump_values(pair: WeightPair, spec: BumpSpec, cubes: Sequence[Cube]) -> np.ndarray:
    """F_left(Q) * F_right(Q) for every cube of the family (see bump_constant)."""
    return _bump(pair, spec).values(pair.u.grid, cubes)


# Bisection steps of _orlicz_bound: they narrow its bracket to 2^-20 of its width,
# and any step leaves the bracket's upper end an upper bound.
BOUND_STEPS = 20

# The bounds are those of exact arithmetic: a cube is left out only if its bound
# times BOUND_MARGIN is below the seed, a value of the family times SEED_MARGIN
# or below. 2^-20 covers the Orlicz root's ROOT_BAND (1e-12 relative) and the
# rounding of the bounds, of Phi and of t* by more than 1e5 times. A seed below
# SEED_FLOOR, where floats are too sparse for that, prunes nothing.
BOUND_MARGIN = 1.0 + 2.0**-20
SEED_MARGIN = 1.0 - 2.0**-20
SEED_FLOOR = 2.0**-1000
SEED_CUBES = 8  # a family without single cells seeds from this many exact values


def bump_constant(pair: WeightPair, spec: BumpSpec, cubes: Sequence[Cube]) -> BumpReport:
    """sup over cubes of F_left(Q) * F_right(Q).

    F_right is the Orlicz average of v^(-1/p) with exponents (p', a_right).
    F_left is the plain average of u for the maximal preset, and otherwise
    the Orlicz average of u^(1/p) with exponents (p, a_left).

    A branch and bound (Land & Doig, Econometrica 28, 1960) finds the sup and
    its first cube in family order, bit for bit those of every cube's value:
    the seed, a lower bound of the sup, is the best single cell's value, known
    without a root search as c / t*, or else the largest exact value of the
    SEED_CUBES cubes with the largest bounds. Every cube gets an upper bound
    from its maxima (_Bump.bounds), those that reach the seed a tighter one
    from their cells, and only those that still reach it, or whose bound is in
    doubt, get their value. A left-out cube's value is below the sup, so it
    never runs the Orlicz root search and cannot raise.
    """
    bump, grid = _bump(pair, spec), pair.u.grid
    fam = _checked_family(cubes, grid)
    tops = (_range_max(bump.left, fam), _range_max(bump.right, fam))
    bound = bump.bounds(tops)
    values = np.full(len(fam), -np.inf)  # -inf: not evaluated
    single = bound[fam.n_cells == 1]
    seed = np.max(single, initial=0.0, where=~np.isnan(single)) * SEED_MARGIN
    if not seed >= SEED_FLOOR:
        top = np.argsort(-bound, kind="stable")[:SEED_CUBES]  # NaN last
        values[top] = bump.values(grid, _subfamily(fam, top))
        seed = np.max(values[top])
    todo = np.flatnonzero(values == -np.inf)
    if seed >= SEED_FLOOR:  # else prune nothing
        below = seed / BOUND_MARGIN  # a bound below this is below the seed with its margin
        todo = todo[~(bound[todo] < below)]
        if len(todo):
            tighter = bump.bounds([t[todo] for t in tops], grid, _subfamily(fam, todo))
            todo = todo[~(tighter < below)]
    if len(todo):
        values[todo] = bump.values(grid, _subfamily(fam, todo))
    return _sup_report(values, fam)


def _subfamily(fam: CubeFamily, positions: np.ndarray) -> CubeFamily:
    return CubeFamily(fam.i0[positions], fam.n_cells[positions])


def iterate_maximal(u: GridFunction, k: int) -> GridFunction:
    """k-fold composition of the Hardy-Littlewood maximal operator, within MAXIMAL_WORK_CELLS."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    _check_weights(u)
    if k * max(u.grid.cells, 1024) > MAXIMAL_WORK_CELLS:
        raise ValueError(f"the maximal function is capped at {MAXIMAL_CELL_CAP} cells per call and "
                         f"{MAXIMAL_WORK_CELLS} over k calls of 1024 or more; "
                         f"got k = {k}, m = {u.grid.cells}")
    out = u
    for _ in range(k):
        out = maximal_fn(out)
    return out
