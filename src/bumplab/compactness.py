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

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .grid import Cube, Grid, GridFunction, _shift_rows, dyadic_cubes, haar, lp_norm_weighted, shift
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
    seed: int
    tags: list[str]
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
    shift: float


@dataclass
class TailReport:
    C_bv: float
    N0: float
    v_certificate: float


@dataclass
class SpectralReport:
    singular_values: np.ndarray
    grid_cells: int
    K_list: list[int]
    sigma_ratios: list[float]
    energy_tails: list[float]


@dataclass
class DecayComparison:
    smooth: SpectralReport
    spike: SpectralReport
    K_list: list[int]
    bmo_scale: float


def _generate_member(v: GridFunction, p: float, seed: int, index: int) -> tuple[GridFunction, str]:
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
    if nrm == 0.0:  # measure-zero event for the piecewise generator
        f = GridFunction(grid, np.ones(m))
        nrm = lp_norm_weighted(f, v, p)
    return GridFunction(grid, f.values / nrm), kind


def _check_weights(grid: Grid, u: GridFunction | None = None,
                   v: GridFunction | None = None) -> None:
    """The rule every weighted probe keeps: u >= 0 and v > 0 everywhere, each
    on the symbol's grid."""
    for name, w in (("u", u), ("v", v)):
        if w is not None and w.grid != grid:
            raise ValueError(f"{name} lies on {w.grid}, not on the symbol's {grid}")
    if v is not None and np.min(v.values) <= 0:
        raise ValueError("v must be positive everywhere")
    if u is not None and np.any(u.values < 0):
        raise ValueError("u must be nonnegative")


def sample_unit_ball(v: GridFunction, p: float, count: int, seed: int) -> UnitBallSample:
    """Deterministic sample of the unit ball of L^p(v). Raises ValueError, before
    the first member is drawn, if the sample and what the KR probes build from
    it would not fit in memory."""
    if count < 1:
        raise ValueError("count must be >= 1")
    _check_weights(v.grid, v=v)
    # m x count floats each: the sample, its commutator images, and kr_probe's
    # shifted difference with its |.|, |.|^p and weighted |.|^p
    check_dense_fits(6 * 8 * v.grid.cells * count,
                     f"a sample of {count} functions on {v.grid.cells} cells and its "
                     f"commutator images", "use a smaller grid or count")
    members = [_generate_member(v, p, seed, i) for i in range(count)]
    return UnitBallSample(
        functions=[f for f, _ in members],
        seed=seed,
        tags=[tag for _, tag in members],
        p=p,
    )


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
    if any(f.grid != b.grid for f in functions):
        raise ValueError("b and f must share a grid")
    kernel = _kernel(b.grid, trunc)
    G = np.empty((b.grid.cells, len(functions)))
    for s in range(0, len(functions), _IMAGE_BLOCK):
        F = np.stack([f.values for f in functions[s : s + _IMAGE_BLOCK]])
        G[:, s : s + len(F)] = _commutator_rows(b, F, kernel).T
    return G


def _weighted_mass(columns: np.ndarray, u: GridFunction, p: float) -> np.ndarray:
    """|g|^p u h per cell of each column g; a column's L^p(u) norm is the
    p-th root of its sum."""
    return np.abs(columns) ** p * (u.values * u.grid.h)[:, None]


def _sup_norm(mass: np.ndarray, p: float) -> float:
    """The largest L^p(u) norm over the columns whose weighted masses are ``mass``."""
    return float(np.max(np.sum(mass, axis=0) ** (1.0 / p)))


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
    _check_weights(grid, u=u)
    for N in N_list:
        if N >= grid.half_width:
            raise ValueError(f"N = {N} must be < the grid half-width {grid.half_width}")
    for k in shift_cells:
        _check_shift(k, grid, trunc, allow_large_shifts)
    G = _commutator_images(sample, b, trunc)
    mass = _weighted_mass(G, u, p)
    bound = _sup_norm(mass, p)
    x = grid.centers
    tail = [(float(N), _sup_norm(mass[np.abs(x) > N], p)) for N in N_list]
    del mass  # beside the modulus's arrays it would pass sample_unit_ball's budget of six
    modulus = [(abs(k) * grid.h, _sup_norm(_weighted_mass(_shift_rows(G, k) - G, u, p), p))
               for k in shift_cells]
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
    if b.grid != f.grid:
        raise ValueError("b and f must share a grid")
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
    return ShiftDecomposition(
        Af=GridFunction(grid, A),
        Bf=GridFunction(grid, B),
        shift=k * grid.h,
    )


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
    _check_weights(grid, v=v)
    supp = b.values != 0.0
    if not np.any(supp):
        radius = 0.0
    else:
        radius = float(np.max(np.abs(grid.centers[supp])) + grid.h / 2.0)
    if N0 <= 2.0 * radius:
        raise ValueError(f"N0 = {N0} must exceed twice the symbol support radius {radius}")
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
    x = grid.centers
    far = np.abs(x) > N0
    if not np.any(far):
        raise ValueError("no grid cells beyond N0; enlarge the domain or reduce N0")
    C_bv = float(np.max(np.abs(G[far]) * np.abs(x[far])[:, None]))
    return TailReport(C_bv=C_bv, N0=float(N0), v_certificate=cert)


def _operator_block(b: GridFunction, trunc: TruncationSpec, u: GridFunction, v: GridFunction,
                    rows: np.ndarray | None, cols: np.ndarray | None) -> np.ndarray:
    """The rows and columns (index arrays; None for all) of the matrix A of
    [b, T_eta] : L^2(v) -> L^2(u) on the plain sequence space, entry for entry:
    A_ij = u_i^(1/2) (b_i - b_j) K_eta(x_i, x_j) v_j^(-1/2) h, K_eta gathered
    from the Toeplitz view of kernel_offsets. With sequence norms weighted by h
    on both sides, ||A g|| = ||[b,T_eta](v^(-1/2) g)||_{L^2(u)} exactly, and
    the h-weighting cancels in singular values."""
    K = _toeplitz(kernel_offsets(b.grid, trunc))
    rows = np.arange(b.grid.cells) if rows is None else rows
    A = K[rows] if cols is None else K[np.ix_(rows, cols)]
    bj, vj = (b.values, v.values) if cols is None else (b.values[cols], v.values[cols])
    A *= b.values[rows][:, None] - bj[None, :]
    A *= b.grid.h
    A *= np.sqrt(u.values[rows])[:, None]
    A *= (1.0 / np.sqrt(vj))[None, :]
    return A


# Relative tolerance of the two gross-failure checks on a computed spectrum. On the
# operator matrices at m <= 2048, sum(sigma^2) meets ||A||_F^2 to about 1e-15.
_SPECTRUM_RTOL = 1e-12
# Power iterations behind the lower bound on sigma_1 (two matvecs each)
_POWER_STEPS = 8


def _sigma1_lower_bound(dense: np.ndarray, block: np.ndarray, cols: np.ndarray) -> float:
    """max ||A x|| over the unit vectors x of a few power iterations on A^T A,
    from a fixed start; each one is a lower bound on sigma_1. A's rows are
    `dense`, then `block` on the columns `cols` and zero elsewhere."""
    x = np.random.default_rng(0).standard_normal(dense.shape[1])
    best = 0.0
    for _ in range(_POWER_STEPS):
        nrm = float(np.linalg.norm(x))
        if nrm == 0.0:  # A^T A x reached 0: no better bound from this start
            break
        x = x / nrm
        y, y_block = dense @ x, block @ x[cols]
        best = max(best, math.hypot(np.linalg.norm(y), np.linalg.norm(y_block)))
        x = dense.T @ y
        x[cols] += block.T @ y_block
    return best


def _operator_split(b: GridFunction, trunc: TruncationSpec, u: GridFunction,
                    v: GridFunction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The dense rows, the sparse block and its columns of the operator matrix
    A (see _operator_block), partitioned from the inputs before any entry is
    evaluated, each entry once. With S the cells where b differs from its most
    common value (the smallest of those that tie), a row off S is zero off the
    columns S, and a row with u_i = 0 is zero and left out. The dense rows are
    the live rows (u_i > 0) on S, the block the live rows off S on the columns
    S; when the block has no more rows than S has cells the split saves
    nothing (see _compressed), and the live rows come whole."""
    _check_weights(b.grid, u, v)
    m = b.grid.cells
    values, counts = np.unique(b.values, return_counts=True)
    on_S = b.values != values[np.argmax(counts)]
    live = u.values > 0
    rows, block_rows = np.flatnonzero(live & on_S), np.flatnonzero(live & ~on_S)
    cols = np.flatnonzero(on_S)
    if block_rows.size <= cols.size:
        rows, block_rows, cols = np.flatnonzero(live), block_rows[:0], cols[:0]
        # the live rows and LAPACK's copy of them
        nbytes, what = 2 * 8 * rows.size * m, f"the SVD of the {rows.size} x {m} matrix"
    else:
        d, c, side = rows.size, cols.size, rows.size + cols.size  # side: the core's
        # the dense rows and the sparse block; the dense rows off cols, which the
        # LQ takes transposed, with numpy's and LAPACK's working copies of them
        # (the block's QR copies it twice too, but not at the same time); the
        # core and LAPACK's copy of it
        nbytes = 8 * (d * m + block_rows.size * c + 3 * d * (m - c) + 2 * side * side)
        what = f"the SVD of the {m} x {m} matrix compressed to a {side} x {side} core"
    check_dense_fits(nbytes, what)
    with np.errstate(over="ignore"):  # reported just below
        dense = _operator_block(b, trunc, u, v, rows, None)
        block = _operator_block(b, trunc, u, v, block_rows, cols)
    if not (np.all(np.isfinite(dense)) and np.all(np.isfinite(block))):
        raise ValueError("matrix entries must be finite")
    return dense, block, cols


def _compressed(dense: np.ndarray, block: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """A square core C with the singular values of the A whose rows are `dense`
    and then `block` on the columns `cols`, up to the QRs' rounding; `dense`
    itself when the block has no rows.

    The rows and cols are those of _operator_split: the dense rows are the live
    rows on S in full, the block the live rows off S on cols = S. Up to a column
    permutation, a QR of the block (R) turns A into Z = [[D_cols, D_rest], [R, 0]]
    with Z^T Z = A^T A, and an LQ of the dense rows off cols (D_rest = L^T Q^T)
    turns Z into C = [[D_cols, L^T], [R, 0]] with C C^T = Z Z^T. With d dense
    rows and c = |cols|, a split that saves rows has more than c block rows
    and d + c < min(m, n), so C is (d + c) x (d + c), and just R when d = 0.
    """
    if not block.shape[0]:
        return dense
    d = dense.shape[0]
    R = np.linalg.qr(block, mode="r")
    L = np.linalg.qr(np.delete(dense, cols, axis=1).T, mode="r")
    core = np.zeros((d + R.shape[0], cols.size + L.shape[0]))
    core[:d, : cols.size] = dense[:, cols]
    core[:d, cols.size:] = L.T
    core[d:, : cols.size] = R
    return core


def _split_values(dense: np.ndarray, block: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """All singular values, nonincreasing, of the m x n matrix A whose rows are
    `dense` and then `block` on the columns `cols` (see _operator_split),
    without singular vectors: the SVD of the core (see _compressed), whose
    side bounds the rank (at most 2s for a symbol constant off s cells), with
    every value past it an exact 0.0 up to min(m, n), not LAPACK's rounding
    noise of about eps * sigma_1.

    The QRs and LAPACK's values-only SVD (bidiagonal reduction, then dqds) are
    backward stable: the values are exact for some A + E with ||E|| a modest
    multiple of eps * ||A||, so each sigma_k is within about that of the true
    value, and values near eps * sigma_1 are rounding noise; the tests hold
    them to 1e-13 * sigma_1 against the SVD with vectors and the compression
    of the rows alone. Two checks on the dense rows and the sparse block,
    which hold every nonzero of A, catch gross failure of the compression or
    the SVD, each to 1e-12 relative: sum(sigma^2) must match ||A||_F^2, and
    sigma_1 must not fall below the best ||A x|| from a few power iterations.
    Both run on A and the values times 2^-e, with max |a_ij| in [1/2, 1):
    exact, and no square overflows while the entries are finite. Neither
    certifies each sigma_k to a fixed fraction of sigma_1: an error in a small
    sigma_k moves sum(sigma^2) by less than the round-off of ||A||_F^2, and
    the power bound is loose when sigma_2 is close to sigma_1.

    Raises np.linalg.LinAlgError if the SVD fails to converge and
    FloatingPointError if either check fails.
    """
    m, n = dense.shape[0] + block.shape[0], dense.shape[1]
    s = np.linalg.svd(_compressed(dense, block, cols), compute_uv=False)
    s = np.concatenate([s, np.zeros(min(m, n) - s.size)])
    if s.size:
        e = int(np.frexp(max(np.max(np.abs(dense), initial=0.0),
                             np.max(np.abs(block), initial=0.0)))[1])
        dense, block, t = np.ldexp(dense, -e), np.ldexp(block, -e), np.ldexp(s, -e)
        fro2 = float(np.linalg.norm(dense)) ** 2 + float(np.linalg.norm(block)) ** 2
        energy = float(np.sum(t**2))
        if not abs(energy - fro2) <= _SPECTRUM_RTOL * fro2:
            raise FloatingPointError(f"sum of sigma^2 {energy} differs from ||A||_F^2 {fro2} "
                                     f"(both times 2^{-2 * e}) by more than "
                                     f"{_SPECTRUM_RTOL:g} relative")
        bound = _sigma1_lower_bound(dense, block, cols)
        if t[0] < (1.0 - _SPECTRUM_RTOL) * bound:
            raise FloatingPointError(f"sigma_1 {t[0]} is below the power-iteration "
                                     f"lower bound {bound} (both times 2^{-e})")
    return s


def _report(s: np.ndarray, grid_cells: int, K_list: list[int]) -> SpectralReport:
    # the energies of s times 2^-e, with s_1 in [1/2, 1), so that no square overflows
    t = np.ldexp(s, -np.frexp(np.max(s, initial=0.0))[1])
    total_energy = float(np.sum(t**2))
    sigma_ratios, energy_tails = [], []
    for K in K_list:
        if K < 1 or K >= s.size:
            raise ValueError(f"K = {K} out of range for {s.size} singular values")
        sigma_ratios.append(float(s[K - 1] / s[0]) if s[0] > 0 else 0.0)
        tail = float(np.sum(t[K:] ** 2))  # strictly beyond the K-th value
        energy_tails.append(tail / total_energy if total_energy > 0 else 0.0)
    return SpectralReport(
        singular_values=s,
        grid_cells=grid_cells,
        K_list=list(K_list),
        sigma_ratios=sigma_ratios,
        energy_tails=energy_tails,
    )


def operator_spectral_report(b: GridFunction, trunc: TruncationSpec, u: GridFunction,
                             v: GridFunction, K_list: list[int]) -> SpectralReport:
    """The m singular values of [b, T_eta] : L^2(v) -> L^2(u) (see _operator_block),
    with sigma_K / sigma_1 and the energy share beyond the K-th value for each
    K in K_list, from the operator's arrow blocks (see _operator_split): O(m s)
    memory for a symbol equal to its most common value off s cells, where the
    whole matrix takes m^2. Rows where u vanishes are never evaluated; their
    exact zeros pad the spectrum to m. Raises ValueError if an entry is not
    finite or the arrays would not fit in memory, and the errors of
    _split_values."""
    s = _split_values(*_operator_split(b, trunc, u, v))
    m = b.grid.cells
    return _report(np.concatenate([s, np.zeros(m - s.size)]), m, K_list)


def decay_compare(b_cmo: GridFunction, b_bmo: GridFunction, trunc: TruncationSpec,
                  u: GridFunction, v: GridFunction, K_list: list[int]) -> DecayComparison:
    """Paired singular-value decay of the commutator for two symbols.

    b_bmo is rescaled so its BMO norm matches b_cmo's before comparison,
    removing norm magnitude as a confounder; the reports then differ only
    through the symbols' oscillation structure. The BMO norms are taken over
    the dyadic cubes of the grid.
    """
    grid = b_cmo.grid
    _check_weights(grid, u, v)
    if b_bmo.grid != grid:
        raise ValueError(f"b_bmo lies on {b_bmo.grid}, not on b_cmo's {grid}")
    cubes = dyadic_cubes(grid)
    norm_cmo = bmo_norm(b_cmo, cubes)
    norm_bmo = bmo_norm(b_bmo, cubes)
    if norm_cmo == 0 or norm_bmo == 0:
        raise ValueError("both symbols need nonzero BMO norm for a matched comparison")
    scale = norm_cmo / norm_bmo
    b_spike = GridFunction(grid, b_bmo.values * scale)

    # one after the other: each SVD already runs on every core through BLAS
    return DecayComparison(smooth=operator_spectral_report(b_cmo, trunc, u, v, K_list),
                           spike=operator_spectral_report(b_spike, trunc, u, v, K_list),
                           K_list=list(K_list), bmo_scale=scale)
