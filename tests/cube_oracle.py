"""Cube-by-cube reference evaluators for the sup-over-cubes constants, and
the cube families as lists of `Cube`.

Each evaluator walks the cube family one cube at a time and reduces that
cube's block with `average` (below) or the package's single-cube
`orlicz_average` (whose root `test_orlicz_oracle` checks against the
reference bisection). This is how `bmo_norm` computed its norm before every
constant went through `grid.per_cube`, which reduces one block of
same-length cubes at a time; the property tests compare it against these
loops. The family builders are the
list-building loops `grid.cube_family` ran before families became index
arrays.
"""

from __future__ import annotations

import numpy as np

from bumplab import orlicz
from bumplab.grid import Cube, Grid, GridFunction
from bumplab.orlicz import YoungFunction
from bumplab.weights import BumpSpec, WeightPair


def average(f: GridFunction, cube: Cube) -> float:
    """Mean of f over the cube; exact for piecewise-constant f."""
    cube.check(f.grid)
    block = f.values[cube.i0 : cube.i0 + cube.n_cells]
    return float(np.sum(block) / cube.n_cells)


def dyadic_cubes(grid: Grid) -> list[Cube]:
    m = grid.cells
    cubes: list[Cube] = []
    n = 1
    while n <= m:
        cubes.extend(Cube(i0, n) for i0 in range(0, m, n))
        n *= 2
    return cubes


def shifted_dyadic_cubes(grid: Grid) -> list[Cube]:
    m = grid.cells
    cubes: list[Cube] = []
    n = 2
    while n <= m:
        cubes.extend(Cube(i0, n) for i0 in range(n // 2, m - n + 1, n))
        n *= 2
    return cubes


def cube_family(grid: Grid, name: str) -> list[Cube]:
    if name == "dyadic":
        return dyadic_cubes(grid)
    return dyadic_cubes(grid) + shifted_dyadic_cubes(grid)


def orlicz_average(f: GridFunction, cube: Cube, phi: YoungFunction) -> float:
    return orlicz.orlicz_average(f, cube, phi).value


def bmo_norm(b: GridFunction, cubes: list[Cube]) -> float:
    if not cubes:
        raise ValueError("cube family must be nonempty")
    best = 0.0
    for q in cubes:
        mean = average(b, q)
        block = b.values[q.i0 : q.i0 + q.n_cells]
        osc = float(np.mean(np.abs(block - mean)))
        if osc > best:
            best = osc
    return best


def ap_per_cube(u: GridFunction, v: GridFunction, p: float, cubes: list[Cube]) -> np.ndarray:
    """(avg_Q u) (avg_Q v^(1-p'))^(p-1) for every cube; u = v gives A_p."""
    dual = GridFunction(v.grid, v.values ** (1.0 - p / (p - 1.0)))
    return np.array([average(u, q) * average(dual, q) ** (p - 1.0) for q in cubes])


def bump_per_cube(pair: WeightPair, spec: BumpSpec, cubes: list[Cube]) -> np.ndarray:
    """F_left(Q) * F_right(Q) for every cube, one Orlicz average at a time."""
    p = spec.p
    grid = pair.u.grid
    v_root = GridFunction(grid, pair.v.values ** (-1.0 / p))
    u_root = GridFunction(grid, pair.u.values ** (1.0 / p))
    phi_right = YoungFunction(p / (p - 1.0), spec.a_right)
    out = []
    for q in cubes:
        right = orlicz_average(v_root, q, phi_right)
        if spec.a_left is None:
            left = average(pair.u, q)
        else:
            left = orlicz_average(u_root, q, YoungFunction(p, spec.a_left))
        out.append(left * right)
    return np.array(out)
