"""The Hardy-Littlewood maximal operator, smoothly truncated singular
integral operators, the maximal truncation, and commutators.

The one kernel is the Hilbert kernel K(x, y) = 1/(pi (x - y)), evaluated
through its offsets (below); KERNEL_CONSTANT = 1/pi is its size and
smoothness constant. The smooth truncation multiplies K by psi(|x - y| / eta)
where psi is a C^1 smoothstep ramp: the truncated kernel vanishes inside
radius eta, agrees with K outside radius 2*eta, and keeps the size and
gradient bounds of K up to a fixed multiple. Every operator evaluated here
stays away from the diagonal, so plain midpoint quadrature is adequate.

The maximal function maximises over every grid-aligned interval: a dyadic
divide and conquer over prefix-sum slopes, in numpy alone, whose best slopes
are tangents to convex hulls merged level by level, in O(m log^2 m) work. Each
value is one interval's average, so it is never above a scan over every width
and offset, and at most a few ulp below it where slopes nearly tie.

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


# maximal_fn does O(m log^2 m) work: about 2 s and 120 MB per call at the cap on a
# 2-core Xeon
MAXIMAL_CELL_CAP = 1 << 18


def _two_diff(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a - b as s + r, two floats with s = fl(a - b), exactly (Knuth's TwoSum)."""
    s = a - b
    bb = s - a
    return s, (a - (s - bb)) - (b + bb)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x = hi + lo with hi of 35 significant bits and lo of 17 (Veltkamp), so that
    each times an integer below 2^18 is exact."""
    c = x * (2.0**18 + 1.0)
    hi = c - (c - x)
    return hi, x - hi


def _on_or_below(prefix: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Whether point b, (b, prefix[b]), lies on or below the chord from point a to
    point c (a < b < c), with prefix nondecreasing: the sign of
    (P_c - P_b)(b - a) - (P_b - P_a)(c - b), from error-free differences and
    products brought near 1 by a power of two, so that only parts below about
    2^-80 of the products are rounded."""
    d1, r1 = _two_diff(prefix[c], prefix[b])
    d2, r2 = _two_diff(prefix[b], prefix[a])
    e = np.frexp(np.maximum(d1, d2))[1]
    d1, r1, d2, r2 = (np.ldexp(x, -e) for x in (d1, r1, d2, r2))
    n1, n2 = (b - a).astype(float), (c - b).astype(float)
    (h1, l1), (h2, l2) = _split(d1), _split(d2)
    return (h1 * n1 - h2 * n2) + ((l1 * n1 - l2 * n2) + (r1 * n1 - r2 * n2)) >= 0


def _less(x: np.ndarray, y: np.ndarray, exact: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """x < y for nonnegative slopes x and y (or -inf), each within two roundings of
    a true slope; where they are too close for that to decide, exact(flat indices)
    decides instead."""
    out = x < y
    # nonnegative floats are ordered as their bit patterns, one step per ulp
    near = np.flatnonzero(np.abs(x.view(np.int64) - y.view(np.int64)) <= 16)
    if near.size:
        out.flat[near] = exact(near)
    return out


def maximal_fn(f: GridFunction) -> GridFunction:
    """Discrete Hardy-Littlewood maximal function.

    The sup of avg_Q |f| over every grid-aligned interval containing each cell
    (all widths, all offsets). With prefix sums P, the average over cells
    [a, b) is the slope (P[b] - P[a]) / (b - a). An interval of two or more
    cells crosses the midpoint of exactly one dyadic node, the smallest that
    contains it, so each level of the dyadic tree maximises the slopes of the
    intervals crossing its nodes' midpoints: a left cell takes the running max
    over starts a <= i of the best slope from a. The right cells are the left
    cells of the mirror image, whose prefix sums -P[m - i] give every slope as
    the same float; both run as one batch.

    The best slope from a start a is the tangent from (a, P_a) to the upper
    hull of the node's end points: a binary search, all of a level's in one
    vectorised pass (Preparata & Hong 1977). The next level's hulls merge
    sibling hulls at their bridge, which leaves the left hull at the first
    vertex whose tangent to the right hull is no shallower than its next edge;
    the same pass takes those tangents, from every point of the left child
    (Overmars & van Leeuwen 1981). O(m log^2 m) work in O(m) memory. Each step
    compares two float slopes and settles near-ties with an orientation test
    good to about 2^-80, so the hulls and tangents are those of the floats P.
    Each cell is the float (P[b] - P[a]) / (b - a) of one interval, so it never
    exceeds a scan over every interval; it can fall a few ulp below it where
    the best interval in exact arithmetic does not carry the largest rounded
    slope.

    More than MAXIMAL_CELL_CAP cells raise ValueError, and prefix sums that
    overflow raise FloatingPointError, both before any of the work.
    """
    m = f.grid.cells
    if m > MAXIMAL_CELL_CAP:
        raise ValueError(f"the maximal function takes O(m log^2 m) work and is capped at "
                         f"{MAXIMAL_CELL_CAP} cells; got m = {m}")
    af = np.abs(f.values)
    with np.errstate(over="ignore"):
        prefix = np.concatenate(([0.0], np.cumsum(af)))
    if not np.isfinite(prefix[-1]):
        raise FloatingPointError("the prefix sums of |f| are not finite (they overflowed); "
                                 "rescale the input")
    prefix = np.concatenate((prefix, -prefix[::-1]))  # P, then its mirror image
    out = np.stack((af, af[::-1]))  # width-1 intervals
    # one row of k vertices per block of k points, padded with its last vertex: the
    # upper hulls of points c k + 1 ... c k + k of P, then of its mirror image
    hulls = np.concatenate((np.arange(1, m + 1), np.arange(m + 2, 2 * m + 2)))
    k = 1
    while k < m:  # nodes of 2k cells, one row each
        rows = np.arange(2 * m // (2 * k))[:, None]
        lo = rows * (2 * k) + (rows * (2 * k) >= m)
        q = lo + np.arange(k + 1)  # tangents from lo ... lo + k to the right child's hull
        qx, pq = q.astype(float), prefix[q]
        hx, hy = hulls.astype(float), prefix[hulls]
        step = np.diff(hulls, append=hulls[-1])
        step[k - 1::k] = 0
        with np.errstate(all="ignore"):  # row ends, padding, and the seam of P and its mirror
            edge = np.diff(hy, append=hy[-1]) / step  # the slope of each vertex's next edge
        edge[step == 0] = -np.inf
        right = rows * (2 * k) + k  # the right child's first slot in hulls
        pos = np.repeat(right, k + 1, axis=1)
        half = k
        while half > 1:
            half //= 2
            at = pos + (half - 1)
            # step right where vertex at is on or below the chord from q to the next
            go = _less((hy[at] - pq) / (hx[at] - qx), edge[at], lambda near: _on_or_below(
                prefix, q.flat[near], hulls[at.flat[near]], hulls[at.flat[near] + 1]))
            np.add(pos, half, out=pos, where=go)
        v = hulls[pos]
        best = (prefix[v] - pq) / (v - q)  # the same float as (P[b] - P[a]) / (b - a)
        left = out.reshape(-1, 2, k)[:, 0]
        np.maximum(left, np.maximum.accumulate(best[:, :k], axis=1), out=left)
        if 2 * k == m:
            break
        # merge: the bridge leaves the left child's hull at its first vertex w whose
        # next edge is no steeper than its tangent to the right child's hull, and
        # enters the right child's hull at that tangent's vertex
        slot = right - k + np.arange(k)
        w = hulls[slot]
        at = w - lo + rows * (k + 1)  # w's query in best, pos and v
        bridge = _less(edge[slot], best.ravel()[at], lambda near: _on_or_below(
            prefix, w.flat[near], hulls[slot.flat[near] + 1], v.ravel()[at.flat[near]]))
        i = bridge.argmax(axis=1)[:, None]
        j = pos.ravel()[np.take_along_axis(at, i, axis=1)] - right
        col = np.arange(2 * k)
        col = np.where(col <= i, col, np.minimum(col + (k + j - i - 1), 2 * k - 1))
        hulls = hulls[right - k + col].ravel()
        k *= 2
    return GridFunction(f.grid, np.maximum(out[0], out[1, ::-1]))


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
    """The rows `rows` and columns `cols` (index arrays; None for all) of the
    dense commutator matrix C, whose product C @ f.values evaluates [b, T_eta] f
    on the grid: C_ij = (K_eta(x_i, x_j) (b_i - b_j)) h, with K_eta gathered from
    the Toeplitz view of kernel_offsets."""
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
