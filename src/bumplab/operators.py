"""The Hardy-Littlewood maximal operator, smoothly truncated singular
integral operators, the maximal truncation, and commutators.

The one kernel is the Hilbert kernel K(x, y) = 1/(pi (x - y)), evaluated
through its offsets (below); KERNEL_CONSTANT = 1/pi is its size and
smoothness constant. The smooth truncation multiplies K by psi(|x - y| / eta)
where psi is a C^1 smoothstep ramp: the truncated kernel vanishes inside
radius eta, agrees with K outside radius 2*eta, and keeps the size and
gradient bounds of K up to a fixed multiple. Every operator evaluated here
stays away from the diagonal, so plain midpoint quadrature is adequate.

The maximal function is exact over every grid-aligned interval: a dyadic
divide and conquer over prefix-sum slopes, in numpy alone, that maximises the
same averages as a scan over every width and offset, bit for bit.

On the uniform grid x_i - x_j = (i - j) h, so the m x m kernel matrix is the
Toeplitz matrix of one vector of 2m - 1 offsets (``kernel_offsets``). T_eta,
[b, T_eta] and each radius of T# are direct convolutions with it, in O(m)
memory; direct rather than FFT so that a kernel vanishing on the support of
f gives exactly 0. Dense matrices, and blocks of their rows and columns, are
read off the vector by indexing.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Grid, GridFunction

__all__ = [
    "KERNEL_CONSTANT",
    "TruncationSpec",
    "cutoff_psi",
    "kernel_offsets",
    "truncated_kernel_matrix",
    "maximal_fn",
    "apply_truncated",
    "default_eta_grid",
    "maximal_truncation",
    "commutator",
    "commutator_block",
    "commutator_matrix",
    "measured_regularity_constant",
    "check_dense_fits",
]


# the Hilbert kernel's size and smoothness constant:
# |K(x, y)| * |x - y| = |dK/dx (x, y)| * |x - y|^2 = 1/pi
KERNEL_CONSTANT = 1.0 / math.pi


def cutoff_psi(r):
    """C^1 ramp: 0 for r <= 1, 1 for r >= 2, cubic smoothstep in between."""
    r = np.asarray(r, dtype=float)
    if np.any(r < 0):
        raise ValueError("cutoff argument must be nonnegative")
    t = np.clip(r - 1.0, 0.0, 1.0)
    out = t * t * (3.0 - 2.0 * t)
    if out.ndim == 0:
        return float(out)
    return out


@dataclass(frozen=True)
class TruncationSpec:
    """Truncation radius and cutoff profile defining K_eta from K."""

    eta: float
    cutoff: Callable[[np.ndarray], np.ndarray] = field(default=cutoff_psi)

    def __post_init__(self) -> None:
        if not self.eta > 0:
            raise ValueError("eta must be positive")

    def check_resolved(self, grid: Grid) -> None:
        if self.eta < 2.0 * grid.h - 1e-12 * grid.h:
            raise ValueError(
                f"eta = {self.eta} must be >= 2h = {2 * grid.h} to resolve the truncation"
            )


# the cgroup v2 memory limit of the cgroup this process runs in
_CGROUP_MEMORY_MAX = "/sys/fs/cgroup/memory.max"


def _cgroup_memory_max() -> int | None:
    """The cgroup v2 memory limit in bytes, or None when there is none to read
    ("max", or no such file)."""
    try:
        with open(_CGROUP_MEMORY_MAX) as fh:
            text = fh.read().strip()
    except OSError:
        return None
    return int(text) if text.isdigit() else None


def check_dense_fits(nbytes: int, what: str) -> None:
    """Raise ValueError if nbytes of dense arrays would not fit in memory: physical
    memory, or the cgroup's memory.max when that is lower."""
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    limit = _cgroup_memory_max()
    if limit is not None:
        total = min(total, limit)
    if nbytes > total:
        raise ValueError(f"{what} needs about {nbytes / 2**30:.3g} GiB, more than the "
                         f"{total / 2**30:.3g} GiB memory limit (physical memory, or the "
                         f"cgroup's memory.max if lower); use a smaller grid")


def kernel_offsets(grid: Grid, trunc: TruncationSpec) -> np.ndarray:
    """K_eta at every cell offset: entry d + m - 1 is K_eta(x_i, x_j) for i - j = d,
    psi(|d h| / eta) / (pi d h), and exactly 0 wherever the cutoff vanishes."""
    trunc.check_resolved(grid)
    dx = np.arange(1 - grid.cells, grid.cells) * grid.h
    w = trunc.cutoff(np.abs(dx) / trunc.eta)
    out = np.zeros_like(dx)
    mask = w > 0.0
    out[mask] = w[mask] * (1.0 / (math.pi * dx[mask]))
    return out


def _toeplitz(kvec: np.ndarray) -> np.ndarray:
    """Read-only m x m view M of the offset vector with M[i, j] = kvec[i - j + m - 1]."""
    m = (kvec.size + 1) // 2
    return sliding_window_view(kvec, m)[:, ::-1]


def truncated_kernel_matrix(grid: Grid, trunc: TruncationSpec) -> np.ndarray:
    """Dense m x m sample of K_eta at all center pairs."""
    m = grid.cells
    check_dense_fits(8 * m * m, f"the {m} x {m} kernel matrix")
    return np.array(_toeplitz(kernel_offsets(grid, trunc)))


# maximal_fn evaluates its slopes in blocks of at most this many floats,
# reused in place; 64K floats (512 KiB) measured fastest at m = 4096 and 8192
# on a 2-core Xeon
_BLOCK = 1 << 16
# maximal_fn does about m^2 / 2 slope evaluations: 4.5 s per call at the cap
# on the same machine
MAXIMAL_CELL_CAP = 1 << 16


def maximal_fn(f: GridFunction) -> GridFunction:
    """Discrete Hardy-Littlewood maximal function.

    Exact sup of avg_Q |f| over every grid-aligned interval containing each
    cell (all widths, all offsets). With prefix sums P, the average over cells
    [a, b) is the slope (P[b] - P[a]) / (b - a). An interval of two or more
    cells crosses the midpoint of exactly one dyadic node, the smallest that
    contains it, so each level of the dyadic tree maximises the slopes of the
    intervals crossing its nodes' midpoints: a left cell takes the running max
    over starts a <= i of the best slope from a, a right cell the reverse
    running max over ends b > j of the best slope into b. Maxima are exact, so
    the result does not depend on the blocking, and it equals a scan over
    every width n of the floats (P[a + n] - P[a]) / n bit for bit. O(m^2)
    work, in O(m) memory plus one block of slopes; more than MAXIMAL_CELL_CAP
    cells raise ValueError before any of it.
    """
    m = f.grid.cells
    if m > MAXIMAL_CELL_CAP:
        raise ValueError(f"the maximal function takes about m^2 / 2 slope evaluations and "
                         f"is capped at {MAXIMAL_CELL_CAP} cells; got m = {m}")
    af = np.abs(f.values)
    prefix = np.concatenate(([0.0], np.cumsum(af)))
    out = af.copy()  # width-1 intervals
    buf = np.empty(min(max(_BLOCK, m // 2), m * m // 4))
    k = 1
    while k < m:  # nodes of 2k cells: starts lo + t, ends lo + k + 1 + u (t, u < k)
        nodes = m // (2 * k)
        starts = prefix[:-1].reshape(nodes, 2 * k)[:, :k]
        ends = prefix[1:].reshape(nodes, 2 * k)[:, k:]
        # widths[t, u] = k + 1 + u - t, as a Toeplitz view of one vector
        widths = sliding_window_view(np.arange(1.0, 2 * k + 1), k)[:0:-1]
        rows = max(1, min(k, _BLOCK // k))  # rows of one node per block
        per_block = _BLOCK // (k * k) if rows == k else 1  # nodes per block
        best_from = np.empty((nodes, k))
        best_into = np.full((nodes, k), -np.inf)
        for n0 in range(0, nodes, per_block):
            n1 = min(nodes, n0 + per_block)
            for t0 in range(0, k, rows):
                t1 = min(k, t0 + rows)
                slopes = buf[: (n1 - n0) * (t1 - t0) * k].reshape(n1 - n0, t1 - t0, k)
                np.subtract(ends[n0:n1, None, :], starts[n0:n1, t0:t1, None], out=slopes)
                np.divide(slopes, widths[t0:t1], out=slopes)
                slopes.max(axis=2, out=best_from[n0:n1, t0:t1])
                np.maximum(best_into[n0:n1], slopes.max(axis=1), out=best_into[n0:n1])
        halves = out.reshape(nodes, 2, k)
        np.maximum(halves[:, 0], np.maximum.accumulate(best_from, axis=1), out=halves[:, 0])
        np.maximum(halves[:, 1], np.maximum.accumulate(best_into[:, ::-1], axis=1)[:, ::-1],
                   out=halves[:, 1])
        k *= 2
    return GridFunction(f.grid, out)


def apply_truncated(f: GridFunction, trunc: TruncationSpec) -> GridFunction:
    """(T_eta f)(x_i) = sum_j K_eta(x_i, x_j) f_j h."""
    kvec = kernel_offsets(f.grid, trunc)
    return GridFunction(f.grid, np.convolve(kvec, f.values * f.grid.h, mode="valid"))


def default_eta_grid(grid: Grid) -> list[float]:
    """Geometric truncation radii 2h, 4h, ..., 2L (ratio 2)."""
    return [grid.h * 2.0**j for j in range(1, int(math.log2(grid.cells)) + 1)]


def maximal_truncation(f: GridFunction, eta_grid: list[float] | None = None) -> GridFunction:
    """T-sharp: pointwise sup over radii of |sharp-truncated T f|.

    Sharp cutoff per the definition: the sum runs over |x_i - x_j| > eta.
    """
    if eta_grid is None:
        eta_grid = default_eta_grid(f.grid)
    if not eta_grid:
        raise ValueError("eta grid must be nonempty")
    kvecs = [kernel_offsets(f.grid, TruncationSpec(eta, lambda r: (r > 1.0) * 1.0))
             for eta in eta_grid]
    fh = f.values * f.grid.h
    out = np.zeros(f.grid.cells)
    for kvec in kvecs:
        np.maximum(out, np.abs(np.convolve(kvec, fh, mode="valid")), out=out)
    return GridFunction(f.grid, out)


def commutator(b: GridFunction, f: GridFunction, trunc: TruncationSpec) -> GridFunction:
    """([b, T_eta] f)(x_i) = sum_j (b_i - b_j) K_eta(x_i, x_j) f_j h.

    Evaluated as b' T_eta(f) - T_eta(b' f) with b' = b - b_0 (the commutator
    ignores constants), so a constant symbol gives b' = 0 and exactly 0.
    """
    if b.grid != f.grid:
        raise ValueError("b and f must share a grid")
    kvec = kernel_offsets(f.grid, trunc)
    h = f.grid.h
    bp = b.values - b.values[0]
    Tf = np.convolve(kvec, f.values * h, mode="valid")
    Tbf = np.convolve(kvec, bp * f.values * h, mode="valid")
    # + 0.0 turns the -0.0 of 0 * (negative Tf) into 0.0 and changes nothing else
    return GridFunction(f.grid, bp * Tf - Tbf + 0.0)


def commutator_block(b: GridFunction, trunc: TruncationSpec, rows: np.ndarray | None = None,
                     cols: np.ndarray | None = None) -> np.ndarray:
    """The rows `rows` and columns `cols` (index arrays; None for all) of
    commutator_matrix, entry for entry: (K_eta(x_i, x_j) (b_i - b_j)) h, with K_eta
    gathered from the Toeplitz view of kernel_offsets."""
    K = _toeplitz(kernel_offsets(b.grid, trunc))
    if cols is None:
        out = np.array(K) if rows is None else K[rows]
    else:
        out = K[np.ix_(np.arange(b.grid.cells) if rows is None else rows, cols)]
    bi = b.values if rows is None else b.values[rows]
    bj = b.values if cols is None else b.values[cols]
    out *= bi[:, None] - bj[None, :]
    out *= b.grid.h
    return out


def commutator_matrix(b: GridFunction, trunc: TruncationSpec) -> np.ndarray:
    """Dense matrix C with C_ij = (b_i - b_j) K_eta(x_i, x_j) h, so that
    C @ f.values evaluates [b, T_eta] f on the grid."""
    m = b.grid.cells
    check_dense_fits(2 * 8 * m * m, f"the {m} x {m} commutator matrix")
    return commutator_block(b, trunc)


def measured_regularity_constant(trunc: TruncationSpec, grid: Grid) -> float:
    """Measured C with |K_eta(x + s, y) - K_eta(x, y)| <= C |s| / |x-y|^2
    over grid pairs with |x - y| >= 2|s|, s = 1, 2 and 4 cells; fixed per (eta, grid)."""
    x = grid.centers
    m = grid.cells
    K = _toeplitz(kernel_offsets(grid, trunc))
    best = 0.0
    step = max(1, m // 512)  # sample rows on large grids
    rows = np.arange(0, m, step)
    for k in (1, 2, 4):
        s = k * grid.h
        valid_rows = rows[rows + k < m]
        r = np.abs(x[valid_rows, None] - x[None, :])
        mask = r >= 2.0 * s
        if not np.any(mask):
            continue
        ratio = np.abs(K[valid_rows + k] - K[valid_rows])[mask] * r[mask] ** 2 / s
        best = max(best, float(ratio.max()))
    return best
