"""Reference evaluators for the kernel operators in bumplab.operators.

Most functions evaluate K_eta(x_i, x_j) entry by entry at the grid centers,
as an m x m array, and apply it with a matrix product. This is the
evaluator the package used before it built every operator from one vector
of kernel offsets; the property tests compare the offset-vector layer
against it. Test grids stay small (m <= 512), so no row blocking is needed.

The ``direct_*`` functions are the offset-vector layer as it was before its
FFT products: each Toeplitz product is a direct sum, ``np.convolve`` of the
2m - 1 kernel offsets with m values, in O(m^2) work and O(m) memory, so
they also serve grids far past 512 cells.
"""

from __future__ import annotations

import math

import numpy as np

from bumplab.grid import Grid, GridFunction
from bumplab.operators import TruncationSpec, default_eta_grid, kernel_offsets


def hilbert(x, y):
    """The Hilbert kernel 1/(pi (x - y)), pair by pair; never called with x == y."""
    return 1.0 / (math.pi * (x - y))


def kernel_block(trunc: TruncationSpec, x_rows: np.ndarray, x_cols: np.ndarray) -> np.ndarray:
    """K_eta sampled on a block of (row, column) center pairs."""
    dx = x_rows[:, None] - x_cols[None, :]
    r = np.abs(dx)
    w = trunc.cutoff(r / trunc.eta)
    out = np.zeros_like(dx)
    mask = w > 0.0
    if np.any(mask):
        xr = np.broadcast_to(x_rows[:, None], dx.shape)[mask]
        xc = np.broadcast_to(x_cols[None, :], dx.shape)[mask]
        out[mask] = w[mask] * hilbert(xr, xc)
    return out


def truncated_kernel_matrix(grid: Grid, trunc: TruncationSpec) -> np.ndarray:
    x = grid.centers
    return kernel_block(trunc, x, x)


def apply_truncated(f: GridFunction, trunc: TruncationSpec) -> np.ndarray:
    return truncated_kernel_matrix(f.grid, trunc) @ (f.values * f.grid.h)


def commutator(b: GridFunction, f: GridFunction, trunc: TruncationSpec) -> np.ndarray:
    """Direct kernel sum: sum_j (b_i - b_j) K_eta(x_i, x_j) f_j h."""
    K = truncated_kernel_matrix(f.grid, trunc)
    K *= b.values[:, None] - b.values[None, :]
    return K @ (f.values * f.grid.h)


def commutator_matrix(b: GridFunction, trunc: TruncationSpec) -> np.ndarray:
    K = truncated_kernel_matrix(b.grid, trunc)
    return K * (b.values[:, None] - b.values[None, :]) * b.grid.h


def maximal_truncation(f: GridFunction, eta_grid: list[float] | None = None) -> np.ndarray:
    """max over radii of |sum_{|x_i - x_j| > eta} K(x_i, x_j) f_j h|."""
    if eta_grid is None:
        eta_grid = default_eta_grid(f.grid)
    x = f.grid.centers
    dx = x[:, None] - x[None, :]
    r = np.abs(dx)
    K = np.zeros_like(dx)
    off = r > 0.0
    K[off] = hilbert(np.broadcast_to(x[:, None], dx.shape)[off],
                     np.broadcast_to(x[None, :], dx.shape)[off])
    fh = f.values * f.grid.h
    out = np.zeros(f.grid.cells)
    for eta in eta_grid:
        np.maximum(out, np.abs(np.where(r > eta, K, 0.0) @ fh), out=out)
    return out


def measured_regularity_constant(trunc: TruncationSpec, grid: Grid) -> float:
    """Measured C with |K_eta(x + s, y) - K_eta(x, y)| <= C |s| / |x-y|^2 over grid
    pairs with |x - y| >= 2|s|, s = 1, 2 and 4 cells, rows sampled on large grids."""
    x = grid.centers
    m = grid.cells
    best = 0.0
    rows = np.arange(0, m, max(1, m // 512))
    for k in (1, 2, 4):
        s = k * grid.h
        valid_rows = rows[rows + k < m]
        k0 = kernel_block(trunc, x[valid_rows], x)
        k1 = kernel_block(trunc, x[valid_rows + k], x)
        r = np.abs(x[valid_rows, None] - x[None, :])
        mask = r >= 2.0 * s
        if not np.any(mask):
            continue
        best = max(best, float((np.abs(k1 - k0)[mask] * r[mask] ** 2 / s).max()))
    return best


def shift_decomposition_B(b: GridFunction, f: GridFunction, trunc: TruncationSpec,
                          k: int) -> np.ndarray:
    """sum_j (b_j - b(x_i + kh)) (K_eta(x_i, x_j) - K_eta(x_i + kh, x_j)) f_j h,
    with b(x_i + kh) and the row of x_i + kh zero past the grid edge."""
    m = f.grid.cells
    K = truncated_kernel_matrix(f.grid, trunc)
    K_sh = np.zeros_like(K)
    b_sh = np.zeros(m)
    if k >= 0:
        K_sh[: m - k], b_sh[: m - k] = K[k:], b.values[k:]
    else:
        K_sh[-k:], b_sh[-k:] = K[: m + k], b.values[: m + k]
    return ((b.values[None, :] - b_sh[:, None]) * (K - K_sh)) @ (f.values * f.grid.h)


def toeplitz_product(kvec: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y_i = sum_j kvec[i - j + m - 1] x_j by direct summation."""
    return np.convolve(kvec, x, mode="valid")


def direct_apply_truncated(f: GridFunction, trunc: TruncationSpec) -> np.ndarray:
    return toeplitz_product(kernel_offsets(f.grid, trunc), f.values * f.grid.h)


def direct_commutator(b: GridFunction, f: GridFunction, trunc: TruncationSpec) -> np.ndarray:
    """b' T_eta(f) - T_eta(b' f) with b' = b - b_0."""
    kvec = kernel_offsets(f.grid, trunc)
    bp = b.values - b.values[0]
    h = f.grid.h
    return (bp * toeplitz_product(kvec, f.values * h)
            - toeplitz_product(kvec, bp * f.values * h) + 0.0)


def sharp(eta: float) -> TruncationSpec:
    """The sharp truncation of T#: the sum runs over |x_i - x_j| > eta."""
    return TruncationSpec(eta, lambda r: (r > 1.0) * 1.0)


def direct_maximal_truncation(f: GridFunction, eta_grid: list[float]) -> np.ndarray:
    fh = f.values * f.grid.h
    out = np.zeros(f.grid.cells)
    for eta in eta_grid:
        kvec = kernel_offsets(f.grid, sharp(eta))
        np.maximum(out, np.abs(toeplitz_product(kvec, fh)), out=out)
    return out
