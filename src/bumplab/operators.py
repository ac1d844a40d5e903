"""The Hardy-Littlewood maximal operator, smoothly truncated singular
integral operators, the maximal truncation, and commutators.

The one kernel is the Hilbert kernel K(x, y) = 1/(pi (x - y)), evaluated
through its offsets (below); 1/pi is its size and smoothness constant. The
smooth truncation multiplies K by psi(|x - y| / eta) where psi is a C^1
smoothstep ramp: the truncated kernel vanishes inside
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
[b, T_eta] and each radius of T# are products with it, computed by embedding
the Toeplitz matrix in a circulant of size 2m and multiplying by a real FFT
(R. Chan & M. Ng, SIAM Review 38, 1996): O(m log m) work in O(m) memory, with
a rounding error of about eps * log m of the output's scale (Higham, Accuracy
and Stability of Numerical Algorithms, ch. 24). Each operand is scaled by a power of two before its
transform and back after, which is exact, so scaling f or b by 2 scales the
output bit for bit, and no sum in a transform overflows where the output is
finite. Where f is zero at every cell within reach of the kernel's support
the output is written as exact 0.0, as the direct sum gives it. Dense
matrices, and blocks of their rows and columns, are read off the vector by
indexing.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .grid import Grid, GridFunction, _check_weights

__all__ = [
    "TruncationSpec",
    "cutoff_psi",
    "kernel_offsets",
    "maximal_fn",
    "apply_truncated",
    "default_eta_grid",
    "maximal_truncation",
    "commutator",
    "check_dense_fits",
]


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
        if math.isinf(1.0 / (math.pi * grid.h)):  # 1 / (pi h), the largest kernel value
            raise ValueError(f"the kernel 1/(pi x) is not finite at the cell width h = "
                             f"{grid.h}; use a larger grid half-width")


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


def check_dense_fits(nbytes: int, what: str, remedy: str = "use a smaller grid") -> None:
    """Raise ValueError if nbytes of dense arrays would not fit in memory: physical
    memory, or the cgroup's memory.max when that is lower."""
    total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    limit = _cgroup_memory_max()
    if limit is not None:
        total = min(total, limit)
    if nbytes > total:
        raise ValueError(f"{what} needs about {nbytes / 2**30:.3g} GiB, more than the "
                         f"{total / 2**30:.3g} GiB memory limit (physical memory, or the "
                         f"cgroup's memory.max if lower); {remedy}")


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


# maximal_fn does O(m log^2 m) work: about 2 s and 120 MB per call at the cap on a
# 2-core Xeon
MAXIMAL_CELL_CAP = 1 << 18


def _two_diff(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a - b as s + r, two floats with s = fl(a - b), exactly (Knuth's TwoSum)."""
    s = a - b
    bb = s - a
    return s, (a - (s - bb)) - (b + bb)


def _veltkamp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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
    (h1, l1), (h2, l2) = _veltkamp(d1), _veltkamp(d2)
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


class _Kernel(NamedTuple):
    """The kernel offsets ready for FFT products (see _fft_product)."""

    spectrum: np.ndarray  # rfft at size 2m of the offsets times 2^-exponent
    exponent: np.ndarray  # shape (1,)
    radius: int  # the offsets are 0 at every |d| <= radius (m - 1: all of them)


class _Rows(NamedTuple):
    """A block of k grid vectors (rows) ready for FFT products."""

    spectrum: np.ndarray  # (k, m + 1): rfft at size 2m of each row times 2^-exponent
    exponent: np.ndarray  # (k, 1)
    first: np.ndarray  # each row's first nonzero cell, m if it has none
    last: np.ndarray  # each row's last nonzero cell, -1 if it has none


def _scaled_rfft(x: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """rfft at size n along the last axis of x times 2^-e, with e per row bringing
    the row's max |entry| into [1/2, 1): exact, and no sum in the transform
    exceeds n in size. Returns the transform and e (keeping the reduced axis)."""
    e = np.frexp(np.max(np.abs(x), axis=-1, keepdims=True))[1]
    return np.fft.rfft(np.ldexp(x, -e), n), e


def _kernel(grid: Grid, trunc: TruncationSpec) -> _Kernel:
    """kernel_offsets(grid, trunc), transformed once for any number of products.
    The radius of its central zero interval is read off the vector itself."""
    kvec = kernel_offsets(grid, trunc)
    m = grid.cells
    nonzero = np.flatnonzero(kvec)
    radius = int(np.min(np.abs(nonzero - (m - 1)))) - 1 if nonzero.size else m - 1
    spectrum, e = _scaled_rfft(kvec, 2 * m)
    return _Kernel(spectrum, e, radius)


def _transform_rows(x: np.ndarray) -> _Rows:
    """The rows of the (k, m) array x, transformed once for any number of products."""
    m = x.shape[1]
    nonzero = x != 0.0
    some = nonzero.any(axis=1)
    first = np.where(some, nonzero.argmax(axis=1), m)
    last = np.where(some, m - 1 - nonzero[:, ::-1].argmax(axis=1), -1)
    spectrum, e = _scaled_rfft(x, 2 * m)
    return _Rows(spectrum, e, first, last)


def _fft_product(kernel: _Kernel, rows: _Rows) -> np.ndarray:
    """The Toeplitz product of the kernel offsets with each row x of the block,
    y_i = sum_j kvec[i - j + m - 1] x_j, as a (k, m) array.

    The offsets span 2m - 1 entries and x m, so the circular convolution at
    size 2m holds the linear one without wrap-around at entries m - 1 ...
    2m - 2, which are y. Where every nonzero x_j lies within the kernel's zero
    radius r of cell i (last - r <= i <= first + r), y_i is written as exact
    0.0, not the transform's round-off. Each row is computed on its own, so a
    row's output is the same floats in any block.
    """
    m = rows.spectrum.shape[1] - 1
    y = np.fft.irfft(kernel.spectrum * rows.spectrum, 2 * m)[:, m - 1 : 2 * m - 1]
    y = np.ldexp(y, rows.exponent + kernel.exponent)
    r = kernel.radius
    for row, first, last in zip(y, rows.first, rows.last):
        row[max(last - r, 0) : max(first + r + 1, 0)] = 0.0
    return y


def apply_truncated(f: GridFunction, trunc: TruncationSpec) -> GridFunction:
    """(T_eta f)(x_i) = sum_j K_eta(x_i, x_j) f_j h."""
    rows = _transform_rows(f.values[None] * f.grid.h)
    return GridFunction(f.grid, _fft_product(_kernel(f.grid, trunc), rows)[0])


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
    rows = _transform_rows(f.values[None] * f.grid.h)  # f once for every radius
    out = np.zeros(f.grid.cells)
    for eta in eta_grid:  # one radius's kernel at a time: O(m) memory
        kernel = _kernel(f.grid, TruncationSpec(eta, lambda r: (r > 1.0) * 1.0))
        np.maximum(out, np.abs(_fft_product(kernel, rows)[0]), out=out)
    return GridFunction(f.grid, out)


def _truncated_pair(b: GridFunction, F: np.ndarray,
                    kernel: _Kernel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """b' = b - b_0, then T_eta f and T_eta(b' f) for each row f of the (k, m)
    array F, all 2k from one FFT product."""
    h = b.grid.h
    bp = b.values - b.values[0]
    T = _fft_product(kernel, _transform_rows(np.concatenate((F * h, bp * F * h))))
    return bp, T[: len(F)], T[len(F):]


def _commutator_rows(b: GridFunction, F: np.ndarray, kernel: _Kernel) -> np.ndarray:
    """[b, T_eta] f for each row f of the (k, m) array F (see commutator); row i
    is the same floats for any k."""
    bp, Tf, Tbf = _truncated_pair(b, F, kernel)
    # + 0.0 turns the -0.0 of 0 * (negative Tf) into 0.0 and changes nothing else
    return bp * Tf - Tbf + 0.0


def commutator(b: GridFunction, f: GridFunction, trunc: TruncationSpec) -> GridFunction:
    """([b, T_eta] f)(x_i) = sum_j (b_i - b_j) K_eta(x_i, x_j) f_j h.

    Evaluated as b' T_eta(f) - T_eta(b' f) with b' = b - b_0 (the commutator
    ignores constants), so a constant symbol gives b' = 0 and exactly 0.
    """
    _check_weights(b=b, f=f)
    return GridFunction(f.grid, _commutator_rows(b, f.values[None], _kernel(f.grid, trunc))[0])
