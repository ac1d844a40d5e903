"""Weight pairs and every sup-over-cube constant: A_p, two-weight A_p, and
the logarithmically bumped two-weight conditions.

Each constant is a supremum over a finite cube family; any finite family
gives a lower bound for the true sup over all cubes. A report holds the value
and the argmax cube; the caller, which chose the family, names it.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grid import Cube, GridFunction, _check_weights, per_cube
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
# below 1024 cells a call's log2 m numpy passes dominate (2-core Xeon: 1.9 ms at
# m = 64, 6.6 ms at 1024, 1.4 s at MAXIMAL_CELL_CAP), so no k runs past about 15 s.
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


def _bump_values(pair: WeightPair, spec: BumpSpec, cubes: Sequence[Cube]) -> np.ndarray:
    """F_left(Q) * F_right(Q) for every cube of the family (see bump_constant)."""
    p = spec.p
    phi_right = YoungFunction(_dual(p), spec.a_right)
    phi_left = None if spec.a_left is None else YoungFunction(p, spec.a_left)

    def product(blocks_l: np.ndarray, blocks_r: np.ndarray) -> np.ndarray:
        right, _, _ = orlicz_average_rows(blocks_r, phi_right)
        if phi_left is None:
            return blocks_l.mean(axis=1) * right
        left, _, _ = orlicz_average_rows(blocks_l, phi_left)
        return left * right

    left_values = pair.u.values if phi_left is None else pair.u.values ** (1.0 / p)
    return per_cube(product, pair.u.grid, cubes, left_values, pair.v.values ** (-1.0 / p))


def bump_constant(pair: WeightPair, spec: BumpSpec, cubes: Sequence[Cube]) -> BumpReport:
    """sup over cubes of F_left(Q) * F_right(Q).

    F_right is the Orlicz average of v^(-1/p) with exponents (p', a_right).
    F_left is the plain average of u for the maximal preset, and otherwise
    the Orlicz average of u^(1/p) with exponents (p, a_left).
    """
    return _sup_report(_bump_values(pair, spec, cubes), cubes)


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
