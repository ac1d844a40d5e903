"""Empirical compactness probes for the commutator [b, T_eta].

Three kinds of evidence are collected, none of which is ever collapsed into
a boolean "compact" verdict (every finite discretization is compact; only
trends across samples, radii, and grid refinements carry information):

* Kolmogorov-Riesz condition values over a sampled unit ball of L^p(v):
  uniform bound, tail mass beyond |x| > N, and the translation modulus with
  its fitted log-log slope.
* The shift decomposition of the translation difference into the
  symbol-increment term and the kernel-difference term, with measured
  pointwise bounds.
* Singular-value decay of the weighted operator matrix (p = 2 only), and
  the paired decay comparison between a smooth symbol and a log-spike
  symbol of matched BMO norm.
"""

from __future__ import annotations

import ctypes
import functools
import math
from collections.abc import Sequence
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .grid import (Cube, Grid, GridFunction, _check_weights, _shift_rows, dyadic_cubes, haar,
                   lp_norm_weighted, shift)
from .operators import (
    TruncationSpec,
    _commutator_rows,
    _kernel,
    _toeplitz,
    _truncated_pair,
    check_dense_fits,
    kernel_offsets,
)
from .orlicz import bmo_norm

__all__ = [
    "UnitBallSample",
    "KRReport",
    "ShiftDecomposition",
    "TailReport",
    "SpectralReport",
    "DecayComparison",
    "sample_unit_ball",
    "kr_probe",
    "shift_decomposition",
    "tail_constant",
    "operator_spectral_report",
    "decay_compare",
]

GENERATOR_CYCLE = ("indicator", "haar", "gaussian", "piecewise")


@dataclass
class UnitBallSample:
    """Functions normalized to unit L^p(v) norm, reproducible from the seed.

    Sample i depends only on (seed, i), so extending the count keeps every
    existing member bit-for-bit.
    """

    functions: list[GridFunction]
    p: float


@dataclass
class KRReport:
    bound_sup: float
    tail_curve: list[tuple[float, float]]
    modulus_curve: list[tuple[float, float]]
    slope: float


@dataclass
class ShiftDecomposition:
    Af: GridFunction
    Bf: GridFunction


@dataclass
class TailReport:
    C_bv: float
    v_certificate: float


@dataclass
class SpectralReport:
    singular_values: np.ndarray
    sigma_ratios: list[float]
    energy_tails: list[float]


@dataclass
class DecayComparison:
    smooth: SpectralReport
    spike: SpectralReport
    bmo_scale: float


def _generate_member(v: GridFunction, p: float, seed: int, index: int) -> GridFunction:
    grid = v.grid
    m = grid.cells
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(index,)))
    kind = GENERATOR_CYCLE[index % len(GENERATOR_CYCLE)]
    if kind == "indicator":
        i0 = int(rng.integers(0, m - 1))
        n = int(rng.integers(1, min(m - i0, max(2, m // 4)) + 1))
        vals = np.zeros(m)
        vals[i0 : i0 + n] = 1.0
    elif kind == "haar":
        level = int(rng.integers(1, int(math.log2(m)) + 1))
        n = 2**level
        i0 = n * int(rng.integers(0, m // n))
        vals = haar(grid, Cube(i0, n)).values
    elif kind == "gaussian":
        center = float(rng.uniform(-grid.half_width / 2, grid.half_width / 2))
        sigma = float(rng.uniform(grid.half_width / 64, grid.half_width / 8))
        vals = np.exp(-0.5 * ((grid.centers - center) / sigma) ** 2)
    else:  # piecewise
        blocks = 2 ** int(rng.integers(3, 7))
        blocks = min(blocks, m)
        vals = np.repeat(rng.standard_normal(blocks), m // blocks)
    f = GridFunction(grid, vals)
    nrm = lp_norm_weighted(f, v, p)
    if nrm == 0.0 and not np.any(vals):  # measure-zero event for the piecewise generator
        f = GridFunction(grid, np.ones(m))
        nrm = lp_norm_weighted(f, v, p)
    if not 0.0 < nrm < math.inf:  # |f|^p v h overflowed, or underflowed to 0
        raise FloatingPointError(f"the L^p(v) norm of sample member {index} ({kind}) at p = {p:g} "
                                 f"is {nrm}; rescale the input")
    return GridFunction(grid, f.values / nrm)


def sample_unit_ball(v: GridFunction, p: float, count: int, seed: int) -> UnitBallSample:
    """Deterministic sample of the unit ball of L^p(v). Raises ValueError, before
    the first member is drawn, if the sample and what the KR probes build from
    it would not fit in memory."""
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_weights(v=v)
    # m x count floats each: the sample, its commutator images, and kr_probe's
    # shifted difference with its |.|, |.|^p and weighted |.|^p
    check_dense_fits(6 * 8 * v.grid.cells * count,
                     f"a sample of {count} functions on {v.grid.cells} cells and its "
                     f"commutator images", "use a smaller grid or count")
    with np.errstate(over="ignore"):  # _generate_member checks each norm
        return UnitBallSample([_generate_member(v, p, seed, i) for i in range(count)], p)


def _check_shift(k: int, grid: Grid, trunc: TruncationSpec, allow_large_shifts: bool) -> None:
    """A shift of k cells must stay below eta/4 (the regime where the
    kernel-difference estimate applies) unless overridden, and on the grid."""
    if k != 0 and abs(k) * grid.h >= trunc.eta / 4.0 and not allow_large_shifts:
        raise ValueError(f"shift {k} cells = {abs(k) * grid.h} is outside |h| < eta/4 = "
                         f"{trunc.eta / 4.0}; pass allow_large_shifts=True to probe anyway")
    if abs(k) >= grid.cells:
        raise ValueError(f"|k_cells| must be < {grid.cells}")


# sample members per FFT product in _commutator_images: a block's transforms hold a
# few arrays of 2 * _IMAGE_BLOCK rows of 2m floats, where transforming every member
# at once would add several copies of the whole image array to the peak memory. On
# a 2-core Xeon, blocks of 2, 4 and 8 imaged 32 members equally fast at m = 2048,
# and in 114, 128 and 135 ms at m = 32768.
_IMAGE_BLOCK = 2


def _commutator_images(sample: UnitBallSample, b: GridFunction,
                       trunc: TruncationSpec) -> np.ndarray:
    """[b, T_eta] f for every sample member, as columns of an (m, count) array:
    _IMAGE_BLOCK members per FFT product, with the kernel transformed once.
    Column i is bit for bit commutator(b, f_i, trunc), so extending the sample
    keeps every existing image."""
    functions = sample.functions
    for f in functions:
        _check_weights(b=b, f=f)
    kernel = _kernel(b.grid, trunc)
    G = np.empty((b.grid.cells, len(functions)))
    for s in range(0, len(functions), _IMAGE_BLOCK):
        F = np.stack([f.values for f in functions[s : s + _IMAGE_BLOCK]])
        G[:, s : s + len(F)] = _commutator_rows(b, F, kernel).T
    return G


def _sup_norms(image: np.ndarray, u: GridFunction, p: float, rows: list) -> list[float]:
    """For each row selection r of rows (a slice or a cell mask), the largest L^p(u)
    norm over the columns g of image, (sum of |g|^p u h over r)^(1/p). Raises
    FloatingPointError if one is not finite, or is 0 where g is not on a cell of u > 0."""
    mass = np.abs(image) ** p * (u.values * u.grid.h)[:, None]
    norms = []
    for r in rows:
        sums = np.sum(mass[r], axis=0)
        norms.append(float(np.max(sums ** (1.0 / p))))
        if not math.isfinite(norms[-1]) or np.any(image[:, sums == 0.0][r][u.values[r] > 0]):
            raise FloatingPointError(f"a KR norm at p = {p:g} is not finite, or 0 for a nonzero "
                                     f"image (|g|^p u h over- or underflowed); rescale the input")
    return norms


def kr_probe(sample: UnitBallSample, b: GridFunction, trunc: TruncationSpec, u: GridFunction,
             N_list: Sequence[float], shift_cells: Sequence[int],
             allow_large_shifts: bool = False) -> KRReport:
    """The three Kolmogorov-Riesz condition values over a sampled unit ball of
    L^p(v), with p = sample.p, from one set of commutator images
    g_i = [b,T_eta] f_i:

    (a) bound_sup, the sup over the sample of ||g_i||_{L^p(u)};
    (b) for each N in N_list, the sup of the L^p(u) mass of g_i on |x| > N;
    (c) for each shift h = k*h_cell in shift_cells, the sup of
        ||g_i(.+h) - g_i||_{L^p(u)}, and the least-squares slope of
        log(modulus) against log|h| through the points with both positive;
        NaN unless those points hold two distinct |h|.

    Every input is checked before the first image: u, radii below the grid
    half-width, and shifts on the grid and below eta/4 (the regime where the
    kernel-difference estimate applies) unless allow_large_shifts.
    """
    grid, p = b.grid, sample.p
    _check_weights(u, symbol=b)
    for N in N_list:
        if N >= grid.half_width:
            raise ValueError(f"N = {N} must be < the grid half-width {grid.half_width}")
    for k in shift_cells:
        _check_shift(k, grid, trunc, allow_large_shifts)
    G = _commutator_images(sample, b, trunc)
    x = grid.centers
    with np.errstate(over="ignore", invalid="ignore"):  # reported by _sup_norms
        bound, *tails = _sup_norms(G, u, p, [slice(None), *(np.abs(x) > N for N in N_list)])
        modulus = [(abs(k) * grid.h, *_sup_norms(_shift_rows(G, k) - G, u, p, [slice(None)]))
                   for k in shift_cells]
    tail = list(zip(map(float, N_list), tails))
    positive = [(h, v) for h, v in modulus if h > 0 and v > 0]
    slope = float("nan")
    if len({h for h, _ in positive}) >= 2:
        hs = np.log([h for h, _ in positive])
        vs = np.log([v for _, v in positive])
        slope = float(np.polyfit(hs, vs, 1)[0])
    return KRReport(bound_sup=bound, tail_curve=tail, modulus_curve=modulus, slope=slope)


def shift_decomposition(b: GridFunction, f: GridFunction, trunc: TruncationSpec,
                        shift_cells: int, allow_large_shifts: bool = False) -> ShiftDecomposition:
    """Split [b,T_eta]f(.+h) - [b,T_eta]f into Af + Bf.

    Af carries the symbol increment: (b(x+h) - b(x)) * T_eta f(x).
    Bf carries the kernel difference:
    sum_j (b_j - b(x+h)) (K_eta(x, x_j) - K_eta(x+h, x_j)) f_j h.
    The identity Af + Bf = shifted difference holds cell-by-cell by
    construction (with zero extension at the boundary).
    """
    _check_weights(b=b, f=f)
    grid = f.grid
    k = int(shift_cells)
    _check_shift(k, grid, trunc, allow_large_shifts)
    b_sh = shift(b, k)
    _, Tf, Tbf = _truncated_pair(b, f.values[None], _kernel(grid, trunc))
    Tf, Tbf = GridFunction(grid, Tf[0]), GridFunction(grid, Tbf[0])
    A = (b_sh.values - b.values) * Tf.values

    # Bf from T f and T(b'f) with b' = b - b_0, both from one product:
    # T(b'f) - T(b'f)(.+h) - (b(x+h) - b_0)(Tf - Tf(.+h)), so that a constant
    # symbol gives exact zeros
    B = (Tbf - shift(Tbf, k)).values - (b_sh.values - b.values[0]) * (Tf - shift(Tf, k)).values
    return ShiftDecomposition(GridFunction(grid, A), GridFunction(grid, B))


def tail_constant(b: GridFunction, trunc: TruncationSpec, v: GridFunction, p: float,
                  sample: UnitBallSample, N0: float) -> TailReport:
    """Measured decay constant sup |[b,T_eta]f(x)| * |x| over |x| > N0.

    Also reports the finiteness certificate (integral of v^(-p'/p) over the
    support of b)^(1/p'), which bounds int |f| over supp b for unit-ball f.
    At p = 1 (p' = infinity) it is max of 1/v over supp b, its limit as p
    falls to 1. Raises ValueError for p < 1.
    """
    if not p >= 1.0:
        raise ValueError(f"p = {p} must be >= 1")
    grid = b.grid
    _check_weights(v=v, symbol=b)
    supp = b.values != 0.0
    if not np.any(supp):
        radius = 0.0
    else:
        radius = float(np.max(np.abs(grid.centers[supp])) + grid.h / 2.0)
    if N0 <= 2.0 * radius:
        raise ValueError(f"N0 = {N0} must exceed twice the symbol support radius {radius}")
    x = grid.centers
    far = np.abs(x) > N0
    if not np.any(far):
        raise ValueError("no grid cells beyond N0; enlarge the domain or reduce N0")
    if not np.any(supp):
        cert = 0.0
    elif p == 1.0:
        cert = float(np.max(1.0 / v.values[supp]))
    else:
        # W (sum (w/W)^p' h)^(1/p') with w = v^(-1/p): p' grows without bound
        # as p falls to 1, and w^p' alone would overflow
        pc = p / (p - 1.0)
        w = v.values[supp] ** (-1.0 / p)
        W = float(np.max(w))
        cert = W * float(np.sum((w / W) ** pc * grid.h) ** (1.0 / pc))

    G = _commutator_images(sample, b, trunc)
    with np.errstate(over="ignore"):  # checked below
        C_bv = float(np.max(np.abs(G[far]) * np.abs(x[far])[:, None]))
    if not math.isfinite(C_bv):
        raise FloatingPointError("C_bv is not finite (|g| |x| overflowed); rescale the input")
    return TailReport(C_bv=C_bv, v_certificate=cert)


def _operator_block(b: GridFunction, trunc: TruncationSpec, u: GridFunction, v: GridFunction,
                    rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """The rows and columns (index arrays) of the matrix A of
    [b, T_eta] : L^2(v) -> L^2(u) on the plain sequence space, entry for entry:
    A_ij = u_i^(1/2) (b_i - b_j) K_eta(x_i, x_j) v_j^(-1/2) h, K_eta gathered
    from the Toeplitz view of kernel_offsets, times each factor in that order.
    With sequence norms weighted by h on both sides, ||A g|| =
    ||[b,T_eta](v^(-1/2) g)||_{L^2(u)} exactly; the h cancels in singular values."""
    A = _toeplitz(kernel_offsets(b.grid, trunc))[np.ix_(rows, cols)]
    A *= b.values[rows][:, None] - b.values[cols][None, :]
    A *= b.grid.h
    A *= np.sqrt(u.values[rows])[:, None]
    A *= (1.0 / np.sqrt(v.values[cols]))[None, :]
    return A


# Relative tolerance of the two gross-failure checks on a computed spectrum. On the
# operator matrices at m <= 2048, sum(sigma^2) meets ||A||_F^2 to about 1e-15.
_SPECTRUM_RTOL = 1e-12
# Power iterations behind the lower bound on sigma_1 (two matvecs each)
_POWER_STEPS = 8
# The fewest rows of the kernel gather per chunk of the streamed pass (see _chunk_rows)
_CHUNK_FLOOR = 4096


def _chunk_rows(s: int) -> int:
    """Rows of the gather per chunk for a support of s cells. Folding a chunk of c
    rows into an s x s R refactors R each time, so the QRs cost about
    1 + 2s / (3c) times one QR of the whole arm (on a 2-core Xeon: 1.24 times
    at c = 2s for the m = 32768 bump, 13.3 -> 16.5 s), while the fold holds
    about 16 s^2 floats at c = 2s (D_S, the R factors, a chunk and the QR's
    copies of the stack [R; chunk]), beside the 8 s^2 of the core and LAPACK's
    copy of it. The floor keeps arms of up to 4096 rows, every benchmark input
    up to m = 4096, in one chunk: the one-shot QR, bit for bit."""
    return max(_CHUNK_FLOOR, 2 * s)


def _power_start(n: int) -> np.ndarray:
    """The fixed start of the power iterations: frac(k phi) - 1/2 for k = 1 ... n,
    phi the golden ratio (a Weyl sequence), equidistributed and never periodic."""
    return np.modf(np.arange(1, n + 1) * 0.6180339887498949)[0] - 0.5


def _sigma1_lower_bound(n: int, matvec, rmatvec, e: int) -> float:
    """max ||2^-e A x|| over the unit vectors x of a few power iterations on
    A^T A from a fixed start, each a lower bound on 2^-e sigma_1, for an A with
    n columns given by its products matvec(x) = A x and rmatvec(y) = A^T y. Every
    product carries the 2^-e on its vector, so no scaled copy of A is made."""
    x = _power_start(n)
    best = 0.0
    for _ in range(_POWER_STEPS):
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0:  # A^T A x reached 0: no better bound from this start
            break
        y = matvec(np.ldexp(x / nrm, -e))
        best = max(best, float(np.linalg.norm(y)))
        x = rmatvec(np.ldexp(y, -e))
    return best


def _check_finite(X: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(X)):
        raise ValueError("matrix entries must be finite")
    return X


def _operator_split(b: GridFunction, trunc: TruncationSpec, u: GridFunction, v: GridFunction):
    """The operator matrix A (see _operator_block) as the arrow the QRs take,
    A = [[D_S, D_rest], [B, 0]] up to permutations, partitioned from the inputs
    before any entry is evaluated, and returned as (D_S, chunks, matvec,
    rmatvec) for _split_values. S is the cells where b differs from its most
    common value b_0 (the smallest of those that tie), and a row where u
    vanishes is zero and left out. D_S is the live rows on S on the columns S,
    from _operator_block; B is the live rows off S, and D_rest the live rows on S
    off S. Both arms come from one gather G = K_eta[off S, S] times (b_0 - b_j)
    and then h, evaluated in chunks of _chunk_rows(s) rows of G, once each, as
    the caller iterates: each chunk yields its rows of B (u_i^(1/2) and then
    v_j^(-1/2)) and of D_rest^T (u_j^(1/2) and then v_i^(-1/2)). K_eta and
    b_i - b_0 are odd bit for bit, so every entry is _operator_block's float,
    up to the sign of D_rest's zeros. When B would have no more rows than S has
    cells the split saves nothing: S becomes every cell and there is no chunk.
    matvec and rmatvec are A's products on grid vectors by FFT (see
    _operator_products). Raises ValueError, before D_S is evaluated, if the pass
    would not fit in memory, and on the first block or chunk with an entry
    that is not finite."""
    _check_weights(u, v, symbol=b)
    m = b.grid.cells
    values, counts = np.unique(b.values, return_counts=True)
    b0 = values[np.argmax(counts)]
    on_S, live = b.values != b0, u.values > 0
    if np.count_nonzero(live & ~on_S) <= np.count_nonzero(on_S):
        on_S[:] = True
    S, off, rows = np.flatnonzero(on_S), np.flatnonzero(~on_S), np.flatnonzero(live & on_S)
    d, s, r = rows.size, S.size, np.count_nonzero(live[off])
    side = (d + min(r, s), s + min(m - s, d))  # the core's
    step = _chunk_rows(s)
    c = min(step, m - s)  # rows of G per chunk
    later = c < m - s  # a later chunk's rows are stacked under the R factors
    # D_S; a chunk of G and its D_rest^T and B rows, with the R factors of a later
    # chunk; the larger QR's stack [R; rows] (the first chunk's rows themselves),
    # numpy's copy and LAPACK's. Then D_S beside the core and LAPACK's copy of it.
    stack = max((later * s + min(c, r)) * s, (later * d + c) * d)
    fold = d * s + c * (s + d) + min(c, r) * s + later * (s * s + d * d) + (2 + later) * stack
    nbytes = 8 * max(fold, d * s * (m > s) + 2 * side[0] * side[1])
    check_dense_fits(nbytes, f"the SVD of the {m} x {m} matrix on a {side[0]} x {side[1]} core")
    with np.errstate(over="ignore"):  # reported just below
        D_S = _check_finite(_operator_block(b, trunc, u, v, rows, S))
    K, h = _toeplitz(kernel_offsets(b.grid, trunc)), b.grid.h
    scale_S, sqrt_u_rows = b0 - b.values[S], np.sqrt(u.values[rows])
    inv_sqrt_v_S = 1.0 / np.sqrt(v.values[S])

    def chunks():
        for start in range(0, m - s, step):
            i = off[start : start + step]
            with np.errstate(over="ignore"):  # reported just below
                G = K[np.ix_(i, S)]
                G *= scale_S
                G *= h
                B = G[live[i]]
                B *= np.sqrt(u.values[i][live[i]])[:, None]
                B *= inv_sqrt_v_S[None, :]
                D_restT = G if d == s else G[:, live[S]]
                D_restT *= sqrt_u_rows[None, :]
                D_restT *= (1.0 / np.sqrt(v.values[i]))[:, None]
            yield _check_finite(B), _check_finite(D_restT)

    return D_S, chunks(), *_operator_products(b, trunc, u, v)


def _operator_products(b: GridFunction, trunc: TruncationSpec, u: GridFunction,
                       v: GridFunction):
    """A x = u^(1/2) [b, T_eta](v^(-1/2) x) and A^T y = v^(-1/2) [b, T_eta](u^(1/2) y)
    for the matrix A of _operator_block, on grid vectors, each one FFT product
    with the kernel transformed once: [b, T_eta]'s matrix (b_i - b_j) K_eta h is
    symmetric, since K_eta is odd."""
    kernel = _kernel(b.grid, trunc)
    sqrt_u, inv_sqrt_v = np.sqrt(u.values), 1.0 / np.sqrt(v.values)

    def matvec(x):
        return sqrt_u * _commutator_rows(b, (inv_sqrt_v * x)[None], kernel)[0]

    def rmatvec(y):
        return inv_sqrt_v * _commutator_rows(b, (sqrt_u * y)[None], kernel)[0]

    return matvec, rmatvec


# The most columns of a matrix whose QR or values-only SVD runs on one BLAS thread
# (see _one_blas_thread). On a 2-core Xeon, OpenBLAS's two threads against one
# took 3.9 against 1.8 ms for the QR of a 960 x 64 matrix, 45 against 34 ms at
# 2048 x 256, and 8.2 against 6.5 ms for the SVD of a 256 x 256 core, but 325
# against 390 ms at 1024 x 1024. From 384 to 512 columns one thread won or lost
# by a few per cent from run to run (the tables are in CHANGES.md).
_ONE_THREAD_COLS = 256


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of the OpenBLAS library in numpy's wheel, or
    None when numpy ships none (MKL, Accelerate or a system BLAS)."""
    for path in sorted((Path(np.__file__).parents[1] / "numpy.libs").glob("*openblas*")):
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and set_ is not None:
                    get.restype, set_.argtypes, set_.restype = ctypes.c_int, [ctypes.c_int], None
                    return get, set_
    return None


@contextmanager
def _one_blas_thread(cols: int):
    """Run the block on one OpenBLAS thread when its LAPACK call takes a matrix of
    at most _ONE_THREAD_COLS columns: at those sizes the Householder panels are
    BLAS-2 work, and a second thread only adds synchronisation. The count is
    read on entry and restored on exit, also when the call raises; wider
    calls, and builds without numpy's OpenBLAS, keep the count as it is. The
    count is the process's, so spectra run at once in several Python threads
    may see each other's cap."""
    threads = _openblas_threads() if cols <= _ONE_THREAD_COLS else None
    old = threads[0]() if threads is not None else 1
    if old > 1:
        threads[1](1)
    try:
        yield
    finally:
        if old > 1:
            threads[1](old)


def _fold(R: np.ndarray | None, X: np.ndarray) -> np.ndarray:
    """The R factor of a QR of [R; X], or of X alone when R is None: one step of
    the sequential TSQR (Demmel, Grigori, Hoemmen & Langou, SIAM J. Sci.
    Comput. 34, 2012), on one BLAS thread when X is narrow (see _one_blas_thread)."""
    with _one_blas_thread(X.shape[1]):
        return np.linalg.qr(X if R is None else np.concatenate([R, X]), mode="r")


def _core_values(core: np.ndarray) -> np.ndarray:
    """The singular values of core, without vectors, on one BLAS thread when core is
    narrow (see _one_blas_thread)."""
    with _one_blas_thread(core.shape[1]):
        return np.linalg.svd(core, compute_uv=False)


def _scaled_square_sum(X: np.ndarray) -> tuple[int, float]:
    """(e, ||2^-e X||_F^2), e the binary exponent of max |x_ij|: exact scaling, and
    no square overflows while the entries are finite."""
    e = int(np.frexp(np.max(np.abs(X), initial=0.0))[1])
    return e, float(np.linalg.norm(np.ldexp(X, -e))) ** 2


def _compressed(D_S: np.ndarray, chunks) -> tuple[np.ndarray, tuple[int, int], list]:
    """A square core C with the singular values of the arrow
    A = [[D_S, D_rest], [B, 0]] of _operator_split, up to the QRs' rounding;
    D_S itself when there are no arm rows. Each chunk (rows of B, rows of
    D_rest^T) is folded into the running R factors of B (R) and of D_rest^T
    (L), as it comes: R turns A into Z = [[D_S, D_rest], [R, 0]] with
    Z^T Z = A^T A, and D_rest = L^T Q^T turns Z into C = [[D_S, L^T], [R, 0]]
    with C C^T = Z Z^T. With D_S of d rows and s columns, a split that saves
    rows has more than s rows in B and d + s < min(m, n), so C is
    (d + s) x (d + s), and just R when d = 0. Also returns A's shape (m, n) and
    _scaled_square_sum of D_S and of every chunk's two arrays, one at a time."""
    d, s = D_S.shape
    m, n = d, s  # A's shape, grown by each chunk's rows
    R = L = None
    sums = [_scaled_square_sum(D_S)]
    for B, D_restT in chunks:
        m, n = m + B.shape[0], n + D_restT.shape[0]
        sums += [_scaled_square_sum(B), _scaled_square_sum(D_restT)]
        R = _fold(R, B)
        L = _fold(L, D_restT)
    if R is None:
        return D_S, (m, n), sums
    core = np.zeros((d + R.shape[0], s + L.shape[0]))
    core[:d, :s] = D_S
    core[:d, s:] = L.T
    core[d:, :s] = R
    return core, (m, n), sums


def _split_values(D_S: np.ndarray, chunks, matvec, rmatvec) -> np.ndarray:
    """All singular values, nonincreasing, of the m x n arrow
    A = [[D_S, D_rest], [B, 0]] of _operator_split, without singular vectors,
    from D_S, the row chunks of its arms (B rows, D_rest^T rows) and A's
    products matvec(x) = A x and rmatvec(y) = A^T y (in any fixed order of A's
    rows and columns): the SVD of the core (see _compressed), whose side bounds
    the rank (at most 2s for a symbol constant off s cells), with every value
    past it an exact 0.0 up to min(m, n), not LAPACK's rounding noise of about
    eps * sigma_1. Each chunk is read once, so the arms are never held whole.
    The QRs and the SVD each run on one BLAS thread when their matrix has at
    most _ONE_THREAD_COLS columns (see _one_blas_thread), so a spectrum whose
    calls are all that narrow is the same floats at any OpenBLAS thread count.

    The QRs and LAPACK's values-only SVD (bidiagonal reduction, then dqds) are
    backward stable: the values are exact for some A + E with ||E|| a modest
    multiple of eps * ||A||, so each sigma_k is within about that of the true
    value, and values near eps * sigma_1 are rounding noise; the tests hold
    them to 1e-13 * sigma_1 against the whole-array path and the SVD with
    vectors. Two checks on A itself catch gross failure of the compression or
    the SVD, each to 1e-12 relative: sum(sigma^2) must match ||A||_F^2, summed
    over D_S and every chunk, and sigma_1 must not fall below the best ||A x||
    from a few power iterations on A's products. Both run on A and the values
    times 2^-e, with max |a_ij| in [1/2, 1): each array's square sum is taken
    times its own power of two and brought to 2^-2e by another, exactly, and no
    square overflows while the entries are finite. Neither certifies each
    sigma_k to a fixed fraction of sigma_1: an error in a small sigma_k moves
    sum(sigma^2) by less than the round-off of ||A||_F^2, and the power bound is
    loose when sigma_2 is close to sigma_1.

    Raises np.linalg.LinAlgError if the SVD fails to converge and
    FloatingPointError if either check fails.
    """
    core, (m, n), sums = _compressed(D_S, chunks)
    s = _core_values(core)
    s = np.concatenate([s, np.zeros(min(m, n) - s.size)])
    if s.size:
        # the exponent of the largest entry: frexp's exponent grows with |x| > 0, and
        # an all-zero array (whose exponent reads 0) holds none
        e = max((e_X for e_X, total in sums if total), default=0)
        t = np.ldexp(s, -e)
        fro2 = sum(math.ldexp(total, 2 * (e_X - e)) for e_X, total in sums)
        energy = float(np.sum(t**2))
        if not abs(energy - fro2) <= _SPECTRUM_RTOL * fro2:
            raise FloatingPointError(f"sum of sigma^2 {energy} differs from ||A||_F^2 {fro2} (both "
                                     f"times 2^{-2 * e}) by more than {_SPECTRUM_RTOL:g} relative")
        # fro2 = 0: A is exactly 0, and so is every value; the FFT products' rounding
        # noise would be no lower bound on sigma_1
        bound = _sigma1_lower_bound(n, matvec, rmatvec, e) if fro2 else 0.0
        if t[0] < (1.0 - _SPECTRUM_RTOL) * bound:
            raise FloatingPointError(f"sigma_1 {t[0]} is below the power-iteration "
                                     f"lower bound {bound} (both times 2^{-e})")
    return s


def _check_K(K_list: list[int], n: int) -> None:
    """Raise ValueError unless every K lies in 1..n-1, for a spectrum of n values."""
    for K in K_list:
        if K < 1 or K >= n:
            raise ValueError(f"K = {K} out of range for {n} singular values")


def _report(s: np.ndarray, K_list: list[int]) -> SpectralReport:
    _check_K(K_list, s.size)
    # the energies of s times 2^-e, with s_1 in [1/2, 1), so that no square overflows
    t = np.ldexp(s, -np.frexp(np.max(s, initial=0.0))[1])
    total_energy = float(np.sum(t**2))
    sigma_ratios, energy_tails = [], []
    for K in K_list:
        sigma_ratios.append(float(s[K - 1] / s[0]) if s[0] > 0 else 0.0)
        tail = float(np.sum(t[K:] ** 2))  # strictly beyond the K-th value
        energy_tails.append(tail / total_energy if total_energy > 0 else 0.0)
    return SpectralReport(singular_values=s, sigma_ratios=sigma_ratios, energy_tails=energy_tails)


def operator_spectral_report(b: GridFunction, trunc: TruncationSpec, u: GridFunction,
                             v: GridFunction, K_list: list[int]) -> SpectralReport:
    """The m singular values of [b, T_eta] : L^2(v) -> L^2(u) (see _operator_block),
    with sigma_K / sigma_1 and the energy share beyond the K-th value for each
    K in K_list, from the operator's arrow blocks in one streamed pass (see
    _operator_split): O(s^2 + c s) memory for a symbol equal to its most common
    value off s cells, with c = _chunk_rows(s) rows per chunk, where the whole
    matrix takes m^2. Rows where u vanishes are never evaluated; their
    exact zeros pad the spectrum to m. Raises ValueError, before any operator
    entry is evaluated, if a K is out of range, then if an entry is not
    finite or the arrays would not fit in memory, and the errors of
    _split_values."""
    _check_K(K_list, b.grid.cells)
    s = _split_values(*_operator_split(b, trunc, u, v))
    return _report(np.concatenate([s, np.zeros(b.grid.cells - s.size)]), K_list)


def decay_compare(b_cmo: GridFunction, b_bmo: GridFunction, trunc: TruncationSpec,
                  u: GridFunction, v: GridFunction, K_list: list[int]) -> DecayComparison:
    """Paired singular-value decay of the commutator for two symbols.

    b_bmo is rescaled so its BMO norm matches b_cmo's before comparison,
    removing norm magnitude as a confounder; the reports then differ only
    through the symbols' oscillation structure. The BMO norms are taken over
    the dyadic cubes of the grid.
    """
    grid = b_cmo.grid
    _check_K(K_list, grid.cells)
    _check_weights(u, v, symbol=b_cmo, b_bmo=b_bmo)
    cubes = dyadic_cubes(grid)
    norm_cmo = bmo_norm(b_cmo, cubes)
    norm_bmo = bmo_norm(b_bmo, cubes)
    if norm_cmo == 0 or norm_bmo == 0:
        raise ValueError("both symbols need nonzero BMO norm for a matched comparison")
    scale = norm_cmo / norm_bmo
    b_spike = GridFunction(grid, b_bmo.values * scale)

    # one after the other: a wide core's SVD runs on every core through BLAS, and a
    # narrow spectrum's QRs and SVD gain nothing from a second thread
    return DecayComparison(smooth=operator_spectral_report(b_cmo, trunc, u, v, K_list),
                           spike=operator_spectral_report(b_spike, trunc, u, v, K_list),
                           bmo_scale=scale)
