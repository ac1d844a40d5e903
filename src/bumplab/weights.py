"""Weight pairs and every sup-over-cube constant: A_p, two-weight A_p, and
the logarithmically bumped two-weight conditions.

Each constant is a supremum over a finite cube family; any finite family
gives a lower bound for the true sup over all cubes, so every report records
the family it was computed on.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grid import Cube, GridFunction, gather_rows, per_cube
from .operators import maximal_fn
from .orlicz import YoungFunction, orlicz_average_groups

__all__ = [
    "WeightPair",
    "BumpSpec",
    "BumpReport",
    "ap_constant",
    "two_weight_ap",
    "bump_constant",
    "iterate_maximal",
]


@dataclass(frozen=True)
class WeightPair:
    """u may vanish on part of the grid; v must be positive everywhere."""

    u: GridFunction
    v: GridFunction

    def __post_init__(self) -> None:
        if self.u.grid != self.v.grid:
            raise ValueError("u and v must share a grid")
        if np.any(self.u.values < 0):
            raise ValueError("u must be nonnegative")
        if not np.any(self.u.values > 0):
            raise ValueError("u must be positive somewhere")
        if np.min(self.v.values) <= 0:
            raise ValueError("v must be positive everywhere")


def _preset_exponents(preset: str, p: float, delta: float) -> tuple[float | None, float]:
    """(a_left, a_right) of a named preset; a_left None is the plain average of u."""
    if not p > 1:
        raise ValueError("p must be > 1")
    if preset not in ("max", "czo", "comm"):
        raise ValueError(f"unknown preset {preset!r}")
    if delta is None or delta <= 0:
        raise ValueError("presets require delta > 0")
    pc = p / (p - 1.0)
    return {
        "max": (None, pc - 1.0 + delta),
        "czo": (p - 1.0 + delta, pc - 1.0 + delta),
        "comm": (2.0 * p - 1.0 + delta, 2.0 * pc - 1.0 + delta),
    }[preset]


@dataclass(frozen=True)
class BumpSpec:
    """Exponents of the bumped product norm.

    a_left/a_right are the log-bump exponents on the u- and v-side factors.
    a_left = None means the left factor is the plain average of u (the
    maximal-operator condition uses exactly that form).
    """

    p: float
    delta: float | None
    preset: str
    a_left: float | None
    a_right: float

    def __post_init__(self) -> None:
        if not self.p > 1:
            raise ValueError("p must be > 1")
        if self.preset != "custom":
            expected = _preset_exponents(self.preset, self.p, self.delta)
            if (self.a_left, self.a_right) != expected:
                raise ValueError(f"exponents {self.a_left, self.a_right} do not "
                                 f"match preset {self.preset!r}")

    @classmethod
    def from_preset(cls, name: str, p: float, delta: float = 1.0) -> "BumpSpec":
        """The "max", "czo" or "comm" exponents at (p, delta)."""
        return cls(p, delta, name, *_preset_exponents(name, p, delta))


@dataclass
class BumpReport:
    constant: float
    argmax_cube: Cube
    cube_family: str
    p: float
    preset: str | None = None
    delta: float | None = None


def _sup_report(values: np.ndarray, cubes: Sequence[Cube], family: str, p: float,
                **meta) -> BumpReport:
    k = int(np.argmax(values))
    return BumpReport(
        constant=float(values[k]),
        argmax_cube=cubes[k],
        cube_family=family,
        p=p,
        **meta,
    )


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
    pc = p / (p - 1.0)
    e_u, e_v = _mid_exponent(u.values), _mid_exponent(v.values)

    def product(blocks_u: np.ndarray, blocks_d: np.ndarray) -> np.ndarray:
        return np.ldexp(blocks_u.mean(axis=1) * blocks_d.mean(axis=1) ** (p - 1.0), e_u - e_v)

    with np.errstate(over="ignore", divide="ignore"):  # a non-finite per-cube value is reported
        w = np.ldexp(v.values, -e_v) ** (1.0 - pc)
        scaled_u = np.ldexp(u.values, -e_u)
    return per_cube(lambda groups, *cells: gather_rows(product, groups, *cells),
                    u.grid, cubes, scaled_u, w)


def ap_constant(w: GridFunction, p: float, cubes: Sequence[Cube],
                family: str = "custom") -> BumpReport:
    """sup over cubes of (avg_Q w) (avg_Q w^(1-p')) ^ (p-1)."""
    if not p > 1:
        raise ValueError("p must be > 1")
    if np.min(w.values) <= 0:
        raise ValueError("A_p requires w > 0 on every cell")
    return _sup_report(_ap_values(w, w, p, cubes), cubes, family, p, preset="ap")


def two_weight_ap(pair: WeightPair, p: float, cubes: Sequence[Cube],
                  family: str = "custom") -> BumpReport:
    """sup over cubes of (avg_Q u) (avg_Q v^(1-p')) ^ (p-1)."""
    if not p > 1:
        raise ValueError("p must be > 1")
    return _sup_report(_ap_values(pair.u, pair.v, p, cubes), cubes, family, p,
                       preset="two_weight_ap")


def _bump_values(pair: WeightPair, spec: BumpSpec, cubes: Sequence[Cube]) -> np.ndarray:
    """F_left(Q) * F_right(Q) for every cube of the family (see bump_constant)."""
    p = spec.p
    phi_right = YoungFunction(p / (p - 1.0), spec.a_right)
    phi_left = None if spec.a_left is None else YoungFunction(p, spec.a_left)

    def product(groups, cells_l: np.ndarray, cells_r: np.ndarray) -> np.ndarray:
        right, _, _ = orlicz_average_groups(cells_r, groups, phi_right)
        if phi_left is None:
            return gather_rows(lambda blocks: blocks.mean(axis=1), groups, cells_l) * right
        left, _, _ = orlicz_average_groups(cells_l, groups, phi_left)
        return left * right

    left_values = pair.u.values if phi_left is None else pair.u.values ** (1.0 / p)
    return per_cube(product, pair.u.grid, cubes, left_values, pair.v.values ** (-1.0 / p))


def bump_constant(pair: WeightPair, spec: BumpSpec, cubes: Sequence[Cube],
                  family: str = "custom") -> BumpReport:
    """sup over cubes of F_left(Q) * F_right(Q).

    F_right is the Orlicz average of v^(-1/p) with exponents (p', a_right).
    F_left is the plain average of u for the maximal preset, and otherwise
    the Orlicz average of u^(1/p) with exponents (p, a_left).
    """
    return _sup_report(_bump_values(pair, spec, cubes), cubes, family, spec.p,
                       preset=spec.preset, delta=spec.delta)


def iterate_maximal(u: GridFunction, k: int) -> GridFunction:
    """k-fold composition of the Hardy-Littlewood maximal operator."""
    if k < 1:
        raise ValueError("k must be a positive integer")
    if np.any(u.values < 0):
        raise ValueError("u must be nonnegative")
    out = u
    for _ in range(k):
        out = maximal_fn(out)
    return out
