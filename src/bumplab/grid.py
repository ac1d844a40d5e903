"""Uniform 1-D grids, grid-aligned cubes, averages, and test-function builders.

Everything downstream works with piecewise-constant functions on a uniform
grid over [-L, L] with a power-of-two number of cells, so dyadic cubes align
exactly with cell boundaries and all cell centers avoid the origin.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "Cube",
    "make_grid",
    "dyadic_cubes",
    "shifted_dyadic_cubes",
    "cube_family",
    "per_cube",
    "average",
    "lp_norm_weighted",
    "shift",
    "constant",
    "indicator",
    "gaussian",
    "smooth_bump",
    "log_spike",
    "haar",
    "power_weight",
]


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform grid of m cells covering [-half_width, half_width]."""

    half_width: float
    cells: int

    def __post_init__(self) -> None:
        if not np.isfinite(self.half_width) or self.half_width <= 0:
            raise ValueError("half_width must be a positive finite number")
        if self.cells < 4 or not _is_power_of_two(self.cells):
            raise ValueError(f"cells must be a power of two >= 4, got {self.cells}")

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.cells

    @property
    def centers(self) -> np.ndarray:
        i = np.arange(self.cells)
        return -self.half_width + (i + 0.5) * self.h


def make_grid(half_width: float, cells: int) -> Grid:
    return Grid(half_width, cells)


@dataclass(frozen=True)
class Cube:
    """Grid-aligned closed interval: cells [i0, i0 + n_cells)."""

    i0: int
    n_cells: int

    def __post_init__(self) -> None:
        if self.n_cells < 1:
            raise ValueError("cube must contain at least one cell")
        if self.i0 < 0:
            raise ValueError("cube left index must be nonnegative")

    def check(self, grid: Grid) -> None:
        if self.i0 + self.n_cells > grid.cells:
            raise ValueError(
                f"cube [{self.i0}, {self.i0 + self.n_cells}) exceeds grid of {grid.cells} cells"
            )

    def endpoints(self, grid: Grid) -> tuple[float, float]:
        a = -grid.half_width + self.i0 * grid.h
        return a, a + self.n_cells * grid.h

    def is_dyadic(self) -> bool:
        return _is_power_of_two(self.n_cells) and self.i0 % self.n_cells == 0


@dataclass
class GridFunction:
    """Piecewise-constant real function: one value per grid cell."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.cells,):
            raise ValueError(
                f"expected {self.grid.cells} values, got shape {self.values.shape}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("grid function values must be finite")

    def with_values(self, values: np.ndarray) -> "GridFunction":
        return GridFunction(self.grid, values)

    def __add__(self, other):
        if isinstance(other, GridFunction):
            return GridFunction(self.grid, self.values + other.values)
        return GridFunction(self.grid, self.values + other)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, GridFunction):
            return GridFunction(self.grid, self.values - other.values)
        return GridFunction(self.grid, self.values - other)

    def __mul__(self, other):
        if isinstance(other, GridFunction):
            return GridFunction(self.grid, self.values * other.values)
        return GridFunction(self.grid, self.values * other)

    __rmul__ = __mul__

    def __abs__(self):
        return GridFunction(self.grid, np.abs(self.values))


def dyadic_cubes(grid: Grid, min_cells: int = 1, max_cells: int | None = None) -> list[Cube]:
    """All dyadic cubes with min_cells <= n_cells <= max_cells.

    A dyadic cube of n_cells = 2^j starts at a multiple of 2^j; the cubes at
    one level tile [-L, L] exactly.
    """
    m = grid.cells
    if max_cells is None:
        max_cells = m
    for n in (min_cells, max_cells):
        if not _is_power_of_two(n):
            raise ValueError(f"cube sizes must be powers of two, got {n}")
    if max_cells > m:
        raise ValueError("max_cells exceeds grid size")
    cubes: list[Cube] = []
    n = min_cells
    while n <= max_cells:
        cubes.extend(Cube(i0, n) for i0 in range(0, m, n))
        n *= 2
    return cubes


def shifted_dyadic_cubes(grid: Grid, min_cells: int = 1, max_cells: int | None = None) -> list[Cube]:
    """Dyadic cubes offset by half their length, where they fit in the domain.

    The left- and right-shifted copies of a dyadic level coincide inside
    [-L, L], so a single offset family covers both. Only levels with
    n_cells >= 2 admit a half-cell-count offset.
    """
    m = grid.cells
    if max_cells is None:
        max_cells = m
    cubes: list[Cube] = []
    n = max(min_cells, 2)
    while n <= max_cells:
        cubes.extend(Cube(i0, n) for i0 in range(n // 2, m - n + 1, n))
        n *= 2
    return cubes


def cube_family(grid: Grid, name: str, min_cells: int = 1, max_cells: int | None = None) -> list[Cube]:
    """Named finite cube family standing in for the sup over all cubes.

    "dyadic" is the plain dyadic family; "dyadic+shifted" adds the
    half-offset copies, which approximate arbitrary intervals within a
    bounded factor. Every constant reported downstream carries this name.
    """
    if name == "dyadic":
        return dyadic_cubes(grid, min_cells, max_cells)
    if name == "dyadic+shifted":
        return dyadic_cubes(grid, min_cells, max_cells) + shifted_dyadic_cubes(
            grid, min_cells, max_cells
        )
    raise ValueError(f"unknown cube family {name!r}")


def per_cube(fn: Callable[..., np.ndarray], grid: Grid, cubes: list[Cube],
             *arrays: np.ndarray) -> np.ndarray:
    """fn's per-row values for every cube of the family, in family order.

    Cubes of one length are reduced together: each array (one value per grid
    cell) is gathered into an (n_cubes, n_cells) block array, and
    fn(*blocks) returns one value per row.
    """
    if not cubes:
        raise ValueError("cube family must be nonempty")
    groups: dict[int, list[int]] = {}
    for pos, q in enumerate(cubes):
        q.check(grid)
        groups.setdefault(q.n_cells, []).append(pos)
    out = np.empty(len(cubes))
    for n, positions in groups.items():
        rows = np.array([cubes[pos].i0 for pos in positions])[:, None] + np.arange(n)
        out[positions] = fn(*(a[rows] for a in arrays))
    return out


def average(f: GridFunction, cube: Cube) -> float:
    """Mean of f over the cube; exact for piecewise-constant f."""
    cube.check(f.grid)
    block = f.values[cube.i0 : cube.i0 + cube.n_cells]
    return float(np.sum(block) / cube.n_cells)


def lp_norm_weighted(f: GridFunction, w: GridFunction, p: float, region: Cube | None = None) -> float:
    """(sum |f|^p w h)^(1/p) over the region (whole grid when region is None)."""
    if p < 1:
        raise ValueError("p must be >= 1")
    if np.any(w.values < 0):
        raise ValueError("weight must be nonnegative")
    fv, wv = f.values, w.values
    if region is not None:
        region.check(f.grid)
        sl = slice(region.i0, region.i0 + region.n_cells)
        fv, wv = fv[sl], wv[sl]
    return float(np.sum(np.abs(fv) ** p * wv * f.grid.h) ** (1.0 / p))


def shift(f: GridFunction, k_cells: int) -> GridFunction:
    """Translate: g_i = f_{i+k}, i.e. g(x) = f(x + k*h), zero outside the grid."""
    m = f.grid.cells
    if abs(k_cells) >= m:
        raise ValueError(f"|k_cells| must be < {m}")
    out = np.zeros(m)
    if k_cells >= 0:
        out[: m - k_cells] = f.values[k_cells:]
    else:
        out[-k_cells:] = f.values[: m + k_cells]
    return GridFunction(f.grid, out)


# ---------------------------------------------------------------------------
# builders


def constant(grid: Grid, c: float) -> GridFunction:
    return GridFunction(grid, np.full(grid.cells, float(c)))


def indicator(grid: Grid, a: float, b: float) -> GridFunction:
    """Characteristic function of [a, b), sampled at cell centers."""
    if b <= a:
        raise ValueError("need a < b")
    x = grid.centers
    return GridFunction(grid, np.where((x >= a) & (x < b), 1.0, 0.0))


def gaussian(grid: Grid, center: float, sigma: float) -> GridFunction:
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    x = grid.centers
    return GridFunction(grid, np.exp(-0.5 * ((x - center) / sigma) ** 2))


def smooth_bump(grid: Grid, center: float, radius: float) -> GridFunction:
    """The standard C^infinity bump exp(-1/(1-t^2)) on |t| < 1, t = (x-c)/r."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    t = (grid.centers - center) / radius
    out = np.zeros(grid.cells)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return GridFunction(grid, out)


def log_spike(grid: Grid, eps: float) -> GridFunction:
    """max(log(1/(|x|+eps)), 0): unbounded-BMO-flavored spike as eps -> 0."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    x = grid.centers
    return GridFunction(grid, np.maximum(np.log(1.0 / (np.abs(x) + eps)), 0.0))


def haar(grid: Grid, cube: Cube) -> GridFunction:
    """+1 on the left half of the cube, -1 on the right half, 0 outside."""
    cube.check(grid)
    if cube.n_cells % 2 != 0:
        raise ValueError("haar cube needs an even number of cells")
    out = np.zeros(grid.cells)
    half = cube.n_cells // 2
    out[cube.i0 : cube.i0 + half] = 1.0
    out[cube.i0 + half : cube.i0 + cube.n_cells] = -1.0
    return GridFunction(grid, out)


def power_weight(grid: Grid, alpha: float) -> GridFunction:
    """|x|^alpha at cell centers; centers sit at odd multiples of h/2, so
    the value is finite for any alpha."""
    return GridFunction(grid, np.abs(grid.centers) ** alpha)
