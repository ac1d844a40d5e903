"""Uniform 1-D grids, grid-aligned cubes, averages, and test-function builders.

Everything downstream works with piecewise-constant functions on a uniform
grid over [-L, L] with a power-of-two number of cells, so dyadic cubes align
exactly with cell boundaries and all cell centers avoid the origin (but for
a subnormal cell width, where the centers nearest it may round to 0.0).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Grid",
    "GridFunction",
    "Cube",
    "CubeFamily",
    "make_grid",
    "dyadic_cubes",
    "shifted_dyadic_cubes",
    "cube_family",
    "per_cube",
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
        if not 0 < self.h < np.inf:
            raise ValueError(f"the grid width 2L or its cell width 2L/m leaves the float "
                             f"range at L = {self.half_width!r}, m = {self.cells}")

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
        if not self.n_cells >= 1:
            raise ValueError("cube must contain at least one cell")
        if not self.i0 >= 0:
            raise ValueError("cube left index must be nonnegative")

    def check(self, grid: Grid) -> None:
        if self.i0 + self.n_cells > grid.cells:
            raise ValueError(
                f"cube [{self.i0}, {self.i0 + self.n_cells}) exceeds grid of {grid.cells} cells"
            )

    def endpoints(self, grid: Grid) -> tuple[float, float]:
        a = -grid.half_width + self.i0 * grid.h
        return a, a + self.n_cells * grid.h


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

    def _combine(self, op, other) -> "GridFunction":
        """op of the values and other's values (or a scalar), on the grid both share."""
        if isinstance(other, GridFunction):
            _check_weights(left=self, right=other)
            other = other.values
        return GridFunction(self.grid, op(self.values, other))

    def __add__(self, other):
        return self._combine(np.add, other)

    __radd__ = __add__

    def __sub__(self, other):
        return self._combine(np.subtract, other)

    def __mul__(self, other):
        return self._combine(np.multiply, other)

    __rmul__ = __mul__

    def __abs__(self):
        return GridFunction(self.grid, np.abs(self.values))


class CubeFamily(Sequence):
    """Cubes [i0[k], i0[k] + n_cells[k]) held as two int arrays, in family order.

    It reads like a list of cubes: len(), iteration, and indexing, which gives
    a Cube (a CubeFamily for a slice). It equals any sequence of the same cubes
    in the same order.
    """

    __hash__ = None

    def __init__(self, i0, n_cells) -> None:
        self.i0 = np.asarray(i0, dtype=np.int64).reshape(-1)
        self.n_cells = np.asarray(n_cells, dtype=np.int64).reshape(-1)
        if self.i0.shape != self.n_cells.shape:
            raise ValueError("i0 and n_cells must have the same length")
        bad = np.flatnonzero((self.n_cells < 1) | (self.i0 < 0))
        if len(bad):
            Cube(int(self.i0[bad[0]]), int(self.n_cells[bad[0]]))  # raises with its own message

    def __len__(self) -> int:
        return len(self.i0)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return CubeFamily(self.i0[k], self.n_cells[k])
        return Cube(int(self.i0[k]), int(self.n_cells[k]))

    def __eq__(self, other) -> bool:
        if isinstance(other, CubeFamily):
            return bool(np.array_equal(self.i0, other.i0)
                        and np.array_equal(self.n_cells, other.n_cells))
        if isinstance(other, Sequence) and not isinstance(other, str):
            return len(other) == len(self) and all(a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"CubeFamily({len(self)} cubes)"


def _checked_family(cubes: Sequence[Cube], grid: Grid) -> CubeFamily:
    """cubes (a CubeFamily or a list of Cube) as a CubeFamily, which must be
    nonempty and lie inside the grid."""
    if not isinstance(cubes, CubeFamily):
        cubes = CubeFamily([q.i0 for q in cubes], [q.n_cells for q in cubes])
    if not len(cubes):
        raise ValueError("cube family must be nonempty")
    outside = np.flatnonzero(cubes.i0 + cubes.n_cells > grid.cells)
    if len(outside):
        cubes[int(outside[0])].check(grid)
    return cubes


def _levels(grid: Grid, shifted: bool) -> CubeFamily:
    """Every cube of length n = 1, 2, 4, ..., m (from 2 when shifted), level by
    level, spaced n apart from 0 (or from n/2 when shifted) while it fits in
    the grid's m cells."""
    m = grid.cells
    sizes = [1 << j for j in range(int(shifted), m.bit_length())]
    starts = [np.arange(n // 2 if shifted else 0, m - n + 1, n) for n in sizes]
    return CubeFamily(np.concatenate(starts), np.repeat(sizes, [len(s) for s in starts]))


def dyadic_cubes(grid: Grid) -> CubeFamily:
    """All dyadic cubes, from single cells up to the whole grid.

    A dyadic cube of n_cells = 2^j starts at a multiple of 2^j; the cubes at
    one level tile [-L, L] exactly.
    """
    return _levels(grid, shifted=False)


def shifted_dyadic_cubes(grid: Grid) -> CubeFamily:
    """Dyadic cubes offset by half their length, where they fit in the domain.

    The left- and right-shifted copies of a dyadic level coincide inside
    [-L, L], so a single offset family covers both. Only levels with
    n_cells >= 2 admit a half-cell-count offset.
    """
    return _levels(grid, shifted=True)


def cube_family(grid: Grid, name: str) -> CubeFamily:
    """Named finite cube family standing in for the sup over all cubes.

    "dyadic" is the plain dyadic family; "dyadic+shifted" adds the
    half-offset copies, which approximate arbitrary intervals within a
    bounded factor. Every constant reported downstream carries this name.
    """
    if name == "dyadic":
        return dyadic_cubes(grid)
    if name == "dyadic+shifted":
        plain = dyadic_cubes(grid)
        shifted = shifted_dyadic_cubes(grid)
        return CubeFamily(np.concatenate([plain.i0, shifted.i0]),
                          np.concatenate([plain.n_cells, shifted.n_cells]))
    raise ValueError(f"unknown cube family {name!r}")


def per_cube(fn: Callable[..., np.ndarray], grid: Grid, cubes: Sequence[Cube],
             *arrays: np.ndarray) -> np.ndarray:
    """fn's per-row values for every cube of the family, in family order.

    The family (a CubeFamily or a list of Cube) is split into length groups,
    in order of first appearance, each holding its cubes in family order.
    fn(*blocks) runs once per group: each array (one value per grid cell) is
    gathered into an (n_cubes, n_cells) block, one row per cube, and fn
    returns one value per row. Raises FloatingPointError if any value is not
    finite.
    """
    fam = _checked_family(cubes, grid)
    order = np.argsort(fam.n_cells, kind="stable")
    runs = np.split(order, np.flatnonzero(np.diff(fam.n_cells[order])) + 1)
    runs.sort(key=lambda pos: pos[0])  # one run of family positions per length
    out = np.empty(len(fam))
    with np.errstate(over="ignore", invalid="ignore"):
        for pos in runs:
            rows = fam.i0[pos, None] + np.arange(fam.n_cells[pos[0]])
            out[pos] = fn(*(a[rows] for a in arrays))
    if not np.all(np.isfinite(out)):
        raise FloatingPointError(
            "a per-cube value is not finite (the reduction overflowed); rescale the input")
    return out


def _range_max(values: np.ndarray, cubes: CubeFamily) -> np.ndarray:
    """max(values[i0 : i0 + n]) for every cube of the family, in family order.

    A sparse table (Bentley, CMU-CS-80-109, 1980), built one level at a time in
    O(m) memory: level j holds the max of every window of 2^j cells, and a cube
    of n cells, 2^j <= n < 2^(j+1), is the max of two windows of level j, the
    first and the last of its cells. O(m log n_max) work; exact."""
    j = np.frexp(cubes.n_cells.astype(float))[1] - 1  # floor(log2 n)
    out = np.empty(len(cubes))
    level = values
    for k in range(int(j.max()) + 1):
        if k:
            level = np.maximum(level[: -(1 << (k - 1))], level[1 << (k - 1):])
        pos = np.flatnonzero(j == k)
        i0 = cubes.i0[pos]
        out[pos] = np.maximum(level[i0], level[i0 + cubes.n_cells[pos] - (1 << k)])
    return out


def _check_weights(u: GridFunction | None = None, v: GridFunction | None = None,
                   **functions: GridFunction) -> None:
    """The one rule for what a computation combines, else ValueError: u >= 0 and v > 0
    on every cell, all on the first one's grid (the named functions, then u, then v)."""
    (first, ref), *rest = [(n, f) for n, f in (*functions.items(), ("u", u), ("v", v)) if f]
    for name, f in rest:
        if f.grid != ref.grid:
            raise ValueError(f"{first} and {name} must share a grid: {name} lies on {f.grid}, "
                             f"not on the {first}'s {ref.grid}")
    if u is not None and np.any(u.values < 0):
        raise ValueError("u must be nonnegative")
    if v is not None and np.min(v.values) <= 0:
        raise ValueError("v must be positive everywhere")


def lp_norm_weighted(f: GridFunction, w: GridFunction, p: float) -> float:
    """(sum |f|^p w h)^(1/p) over the whole grid; w is a weight u >= 0 on f's grid."""
    if p < 1:
        raise ValueError("p must be >= 1")
    _check_weights(w, f=f)
    return float(np.sum(np.abs(f.values) ** p * w.values * f.grid.h) ** (1.0 / p))


def _shift_rows(a: np.ndarray, k_cells: int) -> np.ndarray:
    """out[i] = a[i + k_cells] along axis 0, zero where i + k_cells is off the grid."""
    m = a.shape[0]
    if abs(k_cells) >= m:
        raise ValueError(f"|k_cells| must be < {m}")
    out = np.zeros_like(a)
    if k_cells >= 0:
        out[: m - k_cells] = a[k_cells:]
    else:
        out[-k_cells:] = a[: m + k_cells]
    return out


def shift(f: GridFunction, k_cells: int) -> GridFunction:
    """Translate: g_i = f_{i+k}, i.e. g(x) = f(x + k*h), zero outside the grid."""
    return GridFunction(f.grid, _shift_rows(f.values, k_cells))


# ---------------------------------------------------------------------------
# builders


def constant(grid: Grid, c: float) -> GridFunction:
    return GridFunction(grid, np.full(grid.cells, float(c)))


def indicator(grid: Grid, a: float, b: float) -> GridFunction:
    """Characteristic function of [a, b), sampled at cell centers."""
    if not -np.inf < a < b < np.inf:
        raise ValueError("need finite a < b")
    x = grid.centers
    return GridFunction(grid, np.where((x >= a) & (x < b), 1.0, 0.0))


def gaussian(grid: Grid, center: float, sigma: float) -> GridFunction:
    if not (np.isfinite(center) and 0 < sigma < np.inf):
        raise ValueError("need a finite center and a finite sigma > 0")
    with np.errstate(over="ignore"):  # a subnormal sigma: inf, and exp(-inf) = 0
        return GridFunction(grid, np.exp(-0.5 * ((grid.centers - center) / sigma) ** 2))


def smooth_bump(grid: Grid, center: float, radius: float) -> GridFunction:
    """The standard C^infinity bump exp(-1/(1-t^2)) on |t| < 1, t = (x-c)/r."""
    if not (np.isfinite(center) and 0 < radius < np.inf):
        raise ValueError("need a finite center and a finite radius > 0")
    with np.errstate(over="ignore"):  # a subnormal radius: |t| = inf, outside the bump
        t = (grid.centers - center) / radius
    out = np.zeros(grid.cells)
    inside = np.abs(t) < 1.0
    out[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return GridFunction(grid, out)


def log_spike(grid: Grid, eps: float) -> GridFunction:
    """max(log(1/(|x|+eps)), 0): unbounded-BMO-flavored spike as eps -> 0."""
    if not 0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    x = grid.centers
    # |x| + eps subnormal: log(inf), which GridFunction rejects; |x| + eps huge: 0
    with np.errstate(over="ignore", divide="ignore"):
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
    the value is finite for any alpha unless it overflows, or unless h is
    subnormal, where a center may round to 0.0 and 0^alpha is inf for
    alpha < 0."""
    if not np.isfinite(alpha):
        raise ValueError("alpha must be finite")
    with np.errstate(over="ignore", divide="ignore"):  # GridFunction rejects the inf
        return GridFunction(grid, np.abs(grid.centers) ** alpha)
