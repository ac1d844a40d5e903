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

    @classmethod
    def custom(cls, p: float, a_left: float | None, a_right: float,
               delta: float | None = None) -> "BumpSpec":
        return cls(p, delta, "custom", a_left, a_right)


@dataclass
class BumpReport:
    constant: float
    argmax_cube: Cube
    cube_family: str
    p: float
    preset: str | None = None
    delta: float | None = None
    per_cube: np.ndarray | None = None


def _sup_report(per_cube: np.ndarray, cubes: Sequence[Cube], family: str, p: float,
                keep_values: bool, **meta) -> BumpReport:
    k = int(np.argmax(per_cube))
    return BumpReport(
        constant=float(per_cube[k]),
        argmax_cube=cubes[k],
        cube_family=family,
        p=p,
        per_cube=per_cube if keep_values else None,
        **meta,
    )


def _ap_report(u: GridFunction, v: GridFunction, p: float, cubes: Sequence[Cube],
               family: str, keep_values: bool, preset: str) -> BumpReport:
    pc = p / (p - 1.0)

    def product(blocks_u: np.ndarray, blocks_d: np.ndarray) -> np.ndarray:
        return blocks_u.mean(axis=1) * blocks_d.mean(axis=1) ** (p - 1.0)

    values = per_cube(lambda groups, *cells: gather_rows(product, groups, *cells),
                      u.grid, cubes, u.values, v.values ** (1.0 - pc))
    return _sup_report(values, cubes, family, p, keep_values, preset=preset)


def ap_constant(w: GridFunction, p: float, cubes: Sequence[Cube],
                family: str = "custom", keep_values: bool = False) -> BumpReport:
    """sup over cubes of (avg_Q w) (avg_Q w^(1-p')) ^ (p-1)."""
    if not p > 1:
        raise ValueError("p must be > 1")
    if np.min(w.values) <= 0:
        raise ValueError("A_p requires w > 0 on every cell")
    return _ap_report(w, w, p, cubes, family, keep_values, "ap")


def two_weight_ap(pair: WeightPair, p: float, cubes: Sequence[Cube],
                  family: str = "custom", keep_values: bool = False) -> BumpReport:
    """sup over cubes of (avg_Q u) (avg_Q v^(1-p')) ^ (p-1)."""
    if not p > 1:
        raise ValueError("p must be > 1")
    return _ap_report(pair.u, pair.v, p, cubes, family, keep_values, "two_weight_ap")


def bump_constant(pair: WeightPair, spec: BumpSpec, cubes: Sequence[Cube],
                  family: str = "custom", rel_tol: float = 1e-10,
                  keep_values: bool = False) -> BumpReport:
    """sup over cubes of F_left(Q) * F_right(Q).

    F_right is the Orlicz average of v^(-1/p) with exponents (p', a_right).
    F_left is the plain average of u for the maximal preset, and otherwise
    the Orlicz average of u^(1/p) with exponents (p, a_left).
    """
    p = spec.p
    phi_right = YoungFunction(p / (p - 1.0), spec.a_right)
    phi_left = None if spec.a_left is None else YoungFunction(p, spec.a_left)

    def product(groups, cells_l: np.ndarray, cells_r: np.ndarray) -> np.ndarray:
        right, _, _ = orlicz_average_groups(cells_r, groups, phi_right, rel_tol)
        if phi_left is None:
            return gather_rows(lambda blocks: blocks.mean(axis=1), groups, cells_l) * right
        left, _, _ = orlicz_average_groups(cells_l, groups, phi_left, rel_tol)
        return left * right

    left_values = pair.u.values if phi_left is None else pair.u.values ** (1.0 / p)
    values = per_cube(product, pair.u.grid, cubes, left_values, pair.v.values ** (-1.0 / p))
    return _sup_report(values, cubes, family, p, keep_values,
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
